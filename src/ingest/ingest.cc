#include "ingest/ingest.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cmh/hierarchy.h"
#include "common/interval.h"
#include "common/strings.h"
#include "drivers/extents.h"
#include "dtd/dtd.h"
#include "xml/lexer.h"
#include "xml/token.h"

namespace cxml::ingest {

namespace {

/// One closed element from the lexing pass, before layer assignment.
/// `seq` is the open order — document order, outer before inner on
/// equal extents, which is the insertion order BuildGoddagFromExtents
/// needs to re-nest equal-extent elements correctly.
struct RawElement {
  size_t seq = 0;
  std::string tag;
  std::vector<xml::Attribute> attrs;
  Interval chars;
};

/// A milestone empty element, reduced to its derived span unit and the
/// content offset it fired at.
struct MilestoneEvent {
  std::vector<xml::Attribute> attrs;
  size_t offset = 0;
};

/// One offset-ranged annotation from a <standOff> block.
struct StandoffAnnotation {
  std::string tag;
  std::vector<xml::Attribute> attrs;
  Interval chars;
};

struct ParsedDocument {
  std::string root_tag;
  std::string content;
  std::vector<RawElement> elements;
  /// unit name (page/line/column/@unit) -> events in document order.
  std::map<std::string, std::vector<MilestoneEvent>> milestones;
  std::vector<StandoffAnnotation> standoff;
};

/// HTML void elements: never take content, auto-closed on sight.
bool IsVoidHtmlElement(std::string_view tag) {
  static const std::set<std::string, std::less<>> kVoid = {
      "area", "base",  "br",    "col",  "embed",  "hr",    "img",
      "input", "link", "meta",  "param", "source", "track", "wbr"};
  return kVoid.count(tag) > 0;
}

std::string AsciiLower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

/// TEI milestone empties and the span unit each one derives. The
/// generic <milestone> names its unit via the @unit attribute.
const char* MilestoneUnitFor(std::string_view tag) {
  if (tag == "pb") return "page";
  if (tag == "lb") return "line";
  if (tag == "cb") return "column";
  return nullptr;
}

Status At(const xml::Position& pos, std::string_view message) {
  return status::InvalidArgument(StrCat(
      message, StrFormat(" (line %zu, column %zu)", pos.line, pos.column)));
}

bool ParseSize(std::string_view s, size_t* out) {
  if (s.empty() || s.size() > 18) return false;
  size_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  *out = value;
  return true;
}

std::vector<xml::Attribute> StripAttrs(
    std::vector<xml::Attribute> attrs,
    std::initializer_list<std::string_view> names) {
  attrs.erase(std::remove_if(attrs.begin(), attrs.end(),
                             [&](const xml::Attribute& a) {
                               for (std::string_view n : names) {
                                 if (a.name == n) return true;
                               }
                               return false;
                             }),
              attrs.end());
  return attrs;
}

/// ---------------------------------------------------------- lexing pass

Result<ParsedDocument> Parse(std::string_view source, Format format) {
  const bool lenient = format == Format::kHtml;
  const bool tei = format == Format::kTei;

  xml::Lexer lexer(source);
  ParsedDocument out;

  struct Open {
    size_t seq = 0;
    std::string tag;
    std::vector<xml::Attribute> attrs;
    size_t start = 0;
    xml::Position pos;
  };
  std::vector<Open> stack;
  size_t next_seq = 0;
  bool saw_root = false;
  /// >0: inside <teiHeader> — the whole subtree is metadata, dropped.
  size_t skip_depth = 0;
  /// >0: inside <standOff> — direct children become annotations,
  /// everything else in the subtree is dropped.
  size_t standoff_depth = 0;

  auto emit = [&](Open open) {
    RawElement el;
    el.seq = open.seq;
    el.tag = std::move(open.tag);
    el.attrs = std::move(open.attrs);
    el.chars = Interval(open.start, out.content.size());
    out.elements.push_back(std::move(el));
  };

  while (true) {
    Result<xml::Event> next = lexer.Next();
    if (!next.ok()) {
      // Lexer failures surface as kParseError; the import contract is
      // one uniform code for every bad input, so re-wrap.
      return status::InvalidArgument(next.status().message());
    }
    xml::Event event = std::move(next).value();
    if (event.kind == xml::EventKind::kEndOfDocument) break;
    switch (event.kind) {
      case xml::EventKind::kComment:
      case xml::EventKind::kProcessingInstruction:
      case xml::EventKind::kXmlDecl:
      case xml::EventKind::kDoctype:
        break;

      case xml::EventKind::kText:
      case xml::EventKind::kCData: {
        if (skip_depth > 0 || standoff_depth > 0) break;
        if (stack.empty() && !lenient) {
          if (event.kind == xml::EventKind::kText &&
              IsAllWhitespace(event.text)) {
            break;
          }
          return At(event.pos, "character data outside the root element");
        }
        out.content.append(event.text);
        break;
      }

      case xml::EventKind::kStartElement: {
        std::string name =
            lenient ? AsciiLower(std::move(event.name)) : std::move(event.name);
        if (lenient) {
          for (xml::Attribute& a : event.attrs) a.name = AsciiLower(a.name);
        }
        if (skip_depth > 0) {
          if (!event.self_closing) ++skip_depth;
          break;
        }
        if (tei && name == "teiHeader") {
          if (!event.self_closing) skip_depth = 1;
          break;
        }
        if (standoff_depth > 0) {
          if (standoff_depth == 1) {
            // A direct child of <standOff>: an offset-ranged annotation.
            const std::string* from = event.FindAttribute("from");
            const std::string* to = event.FindAttribute("to");
            if (from == nullptr || to == nullptr) {
              return At(event.pos,
                        StrCat("standOff annotation <", name,
                               "> needs integer 'from' and 'to' attributes"));
            }
            StandoffAnnotation ann;
            ann.tag = name;
            size_t begin = 0, end = 0;
            if (!ParseSize(*from, &begin) || !ParseSize(*to, &end)) {
              return At(event.pos,
                        StrCat("standOff annotation <", name,
                               "> has non-numeric 'from'/'to' offsets"));
            }
            ann.chars = Interval(begin, end);
            ann.attrs = StripAttrs(std::move(event.attrs), {"from", "to"});
            out.standoff.push_back(std::move(ann));
          }
          if (!event.self_closing) ++standoff_depth;
          break;
        }
        if (tei && (name == "standOff" || name == "standoff")) {
          if (!event.self_closing) standoff_depth = 1;
          break;
        }
        if (tei) {
          const char* unit = MilestoneUnitFor(name);
          const bool generic = name == "milestone";
          if (unit != nullptr || generic) {
            if (!event.self_closing) {
              return At(event.pos, StrCat("milestone element <", name,
                                          "> must be an empty element"));
            }
            std::string span_unit;
            if (generic) {
              const std::string* u = event.FindAttribute("unit");
              if (u == nullptr || u->empty()) {
                return At(event.pos,
                          "<milestone> needs a non-empty 'unit' attribute");
              }
              span_unit = *u;
            } else {
              span_unit = unit;
            }
            MilestoneEvent ms;
            ms.offset = out.content.size();
            ms.attrs = generic ? StripAttrs(std::move(event.attrs), {"unit"})
                               : std::move(event.attrs);
            out.milestones[span_unit].push_back(std::move(ms));
            break;
          }
        }
        // A regular element.
        if (stack.empty() && !lenient) {
          if (saw_root) {
            return At(event.pos, "more than one root element");
          }
          saw_root = true;
          out.root_tag = name;
          if (event.self_closing) break;  // empty root: no content, no list
          Open open;
          open.seq = next_seq++;
          open.tag = std::move(name);
          open.attrs = std::move(event.attrs);
          open.start = out.content.size();
          open.pos = event.pos;
          stack.push_back(std::move(open));
          break;
        }
        const bool empty =
            event.self_closing || (lenient && IsVoidHtmlElement(name));
        Open open;
        open.seq = next_seq++;
        open.tag = std::move(name);
        open.attrs = std::move(event.attrs);
        open.start = out.content.size();
        open.pos = event.pos;
        if (empty) {
          emit(std::move(open));
        } else {
          stack.push_back(std::move(open));
        }
        break;
      }

      case xml::EventKind::kEndElement: {
        std::string name =
            lenient ? AsciiLower(std::move(event.name)) : std::move(event.name);
        if (skip_depth > 0) {
          --skip_depth;
          break;
        }
        if (standoff_depth > 0) {
          --standoff_depth;
          break;
        }
        if (lenient && IsVoidHtmlElement(name)) break;  // </br> etc.: drop
        if (stack.empty()) {
          if (lenient) break;  // stray end tag: drop
          return At(event.pos, StrCat("unmatched end tag </", name, ">"));
        }
        if (stack.back().tag == name) {
          Open open = std::move(stack.back());
          stack.pop_back();
          if (stack.empty() && !lenient) break;  // the root: not in the list
          emit(std::move(open));
          break;
        }
        if (!lenient) {
          return At(event.pos,
                    StrCat("end tag </", name, "> does not match open <",
                           stack.back().tag, ">"));
        }
        // Lenient: an end tag matching an ancestor auto-closes every
        // element opened since; one matching nothing is dropped.
        size_t match = stack.size();
        for (size_t i = stack.size(); i-- > 0;) {
          if (stack[i].tag == name) {
            match = i;
            break;
          }
        }
        if (match == stack.size()) break;
        while (stack.size() > match) {
          Open open = std::move(stack.back());
          stack.pop_back();
          emit(std::move(open));
        }
        break;
      }

      case xml::EventKind::kEndOfDocument:
        break;
    }
  }

  if (!stack.empty()) {
    if (!lenient) {
      return At(stack.back().pos,
                StrCat("unclosed element <", stack.back().tag, ">"));
    }
    while (!stack.empty()) {  // HTML: auto-close everything still open
      Open open = std::move(stack.back());
      stack.pop_back();
      emit(std::move(open));
    }
  }
  if (skip_depth > 0) {
    return status::InvalidArgument("unclosed <teiHeader>");
  }
  if (standoff_depth > 0) {
    return status::InvalidArgument("unclosed <standOff>");
  }
  if (lenient) {
    out.root_tag = "document";
  } else if (!saw_root) {
    return status::InvalidArgument("document has no root element");
  }

  // Back to document (open) order: the emit order above is close order,
  // which would nest equal-extent elements inside-out.
  std::sort(out.elements.begin(), out.elements.end(),
            [](const RawElement& a, const RawElement& b) {
              return a.seq < b.seq;
            });
  return out;
}

/// ------------------------------------------------ fragmentation merging

/// Finds every tag that participates in fragmentation (any occurrence
/// carrying part= or next=/prev= links) and merges each chain into one
/// element spanning first-start .. last-end. All occurrences of a
/// fragmented tag (chained or not) move to that tag's overlay
/// hierarchy, reported via `frag_tags`.
Status MergeFragments(ParsedDocument* doc, std::set<std::string>* frag_tags,
                      size_t* merged_chains) {
  for (const RawElement& el : doc->elements) {
    if (el.attrs.empty()) continue;
    for (const xml::Attribute& a : el.attrs) {
      if (a.name == "part" || a.name == "next" || a.name == "prev") {
        frag_tags->insert(el.tag);
        break;
      }
    }
  }
  if (frag_tags->empty()) return Status::Ok();

  auto find_attr = [](const RawElement& el,
                      std::string_view name) -> const std::string* {
    for (const xml::Attribute& a : el.attrs) {
      if (a.name == name) return &a.value;
    }
    return nullptr;
  };

  std::vector<RawElement> merged;
  std::vector<bool> consumed(doc->elements.size(), false);

  for (const std::string& tag : *frag_tags) {
    // Document-order indices of this tag's occurrences.
    std::vector<size_t> occ;
    for (size_t i = 0; i < doc->elements.size(); ++i) {
      if (doc->elements[i].tag == tag) occ.push_back(i);
    }

    // part="I|M|F" chains run sequentially in document order.
    bool open = false;
    RawElement chain;
    for (size_t i : occ) {
      const RawElement& el = doc->elements[i];
      const std::string* part = find_attr(el, "part");
      if (part == nullptr) continue;
      if (find_attr(el, "next") != nullptr ||
          find_attr(el, "prev") != nullptr) {
        return status::InvalidArgument(
            StrCat("element <", tag,
                   "> mixes part= fragmentation with next=/prev= links"));
      }
      if (*part == "N") continue;  // explicit "not fragmented"
      if (*part == "I") {
        if (open) {
          return status::InvalidArgument(
              StrCat("fragment chain of <", tag,
                     "> restarts (part=\"I\") before part=\"F\""));
        }
        open = true;
        chain = RawElement();
        chain.seq = el.seq;
        chain.tag = tag;
        chain.attrs = StripAttrs(el.attrs, {"part"});
        chain.chars = el.chars;
        consumed[i] = true;
      } else if (*part == "M" || *part == "F") {
        if (!open) {
          return status::InvalidArgument(
              StrCat("fragment of <", tag, "> has part=\"", *part,
                     "\" with no open part=\"I\" chain"));
        }
        chain.chars = chain.chars.Union(el.chars);
        consumed[i] = true;
        if (*part == "F") {
          open = false;
          merged.push_back(std::move(chain));
          ++*merged_chains;
        }
      } else {
        return status::InvalidArgument(
            StrCat("element <", tag, "> has invalid part=\"", *part,
                   "\" (expected I, M, F or N)"));
      }
    }
    if (open) {
      return status::InvalidArgument(StrCat(
          "fragment chain of <", tag, "> is missing its part=\"F\" end"));
    }

    // next="[#]id" chains: follow xml:id links from each head (an
    // element with next= but no prev=).
    std::map<std::string, size_t> by_id;
    for (size_t i : occ) {
      const std::string* id = find_attr(doc->elements[i], "xml:id");
      if (id == nullptr) id = find_attr(doc->elements[i], "id");
      if (id != nullptr && !id->empty()) by_id[*id] = i;
    }
    auto deref = [&](const std::string& link) -> size_t {
      std::string key = link;
      if (!key.empty() && key[0] == '#') key = key.substr(1);
      auto it = by_id.find(key);
      return it == by_id.end() ? doc->elements.size() : it->second;
    };
    std::set<size_t> in_link_chain;
    for (size_t i : occ) {
      const RawElement& head = doc->elements[i];
      if (find_attr(head, "next") == nullptr ||
          find_attr(head, "prev") != nullptr) {
        continue;
      }
      RawElement chain2;
      chain2.seq = head.seq;
      chain2.tag = tag;
      chain2.attrs = StripAttrs(head.attrs, {"part", "next", "prev"});
      chain2.chars = head.chars;
      size_t at = i;
      size_t hops = 0;
      while (true) {
        if (!in_link_chain.insert(at).second) {
          return status::InvalidArgument(
              StrCat("next= links of <", tag, "> form a cycle"));
        }
        consumed[at] = true;
        const std::string* next = find_attr(doc->elements[at], "next");
        if (next == nullptr) break;
        size_t to = deref(*next);
        if (to >= doc->elements.size() || doc->elements[to].tag != tag) {
          return status::InvalidArgument(
              StrCat("next=\"", *next, "\" on <", tag,
                     "> does not resolve to an xml:id of the same tag"));
        }
        if (++hops > doc->elements.size()) {
          return status::InvalidArgument(
              StrCat("next= links of <", tag, "> form a cycle"));
        }
        at = to;
        chain2.chars = chain2.chars.Union(doc->elements[at].chars);
      }
      merged.push_back(std::move(chain2));
      ++*merged_chains;
    }
    // Anything still carrying a link was never reached from a head.
    for (size_t i : occ) {
      if (in_link_chain.count(i) > 0) continue;
      if (find_attr(doc->elements[i], "prev") != nullptr) {
        return status::InvalidArgument(
            StrCat("element <", tag,
                   "> has a prev= link no next= chain reaches"));
      }
    }
  }

  std::vector<RawElement> kept;
  kept.reserve(doc->elements.size());
  for (size_t i = 0; i < doc->elements.size(); ++i) {
    if (!consumed[i]) kept.push_back(std::move(doc->elements[i]));
  }
  for (RawElement& m : merged) kept.push_back(std::move(m));
  std::sort(kept.begin(), kept.end(),
            [](const RawElement& a, const RawElement& b) {
              return a.seq < b.seq;
            });
  doc->elements = std::move(kept);
  return Status::Ok();
}

/// ------------------------------------------------------- CMH assembly

std::string DtdFor(const std::string& root_tag,
                   const std::set<std::string>& tags) {
  std::string out = StrCat("<!ELEMENT ", root_tag, " ANY>");
  for (const std::string& t : tags) {
    if (t == root_tag) continue;
    out += StrCat("<!ELEMENT ", t, " ANY>");
  }
  return out;
}

}  // namespace

const char* FormatToString(Format format) {
  switch (format) {
    case Format::kXml:
      return "xml";
    case Format::kTei:
      return "tei";
    case Format::kHtml:
      return "html";
  }
  return "unknown";
}

Result<Format> ParseFormat(std::string_view name) {
  if (name == "xml") return Format::kXml;
  if (name == "tei") return Format::kTei;
  if (name == "html") return Format::kHtml;
  return status::InvalidArgument(
      StrCat("unknown import format '", name, "' (expected xml, tei or html)"));
}

Result<ImportedDocument> Import(std::string_view source,
                                const ImportOptions& options) {
  CXML_ASSIGN_OR_RETURN(ParsedDocument parsed, Parse(source, options.format));

  std::set<std::string> frag_tags;
  size_t merged_chains = 0;
  if (options.format == Format::kTei) {
    CXML_RETURN_IF_ERROR(
        MergeFragments(&parsed, &frag_tags, &merged_chains));
  }

  // Layer the tag vocabulary: backbone, one hierarchy per milestone
  // unit, one overlay per fragmented tag, one standoff hierarchy.
  // Hierarchies must partition the vocabulary, so a tag claimed twice
  // is a convention conflict the importer rejects up front.
  std::map<std::string, std::string> layer_of;  // tag -> layer name
  auto claim = [&](const std::string& tag,
                   const std::string& layer) -> Status {
    if (tag == parsed.root_tag) {
      return status::InvalidArgument(
          StrCat("element tag '", tag, "' collides with the root tag"));
    }
    auto [it, inserted] = layer_of.emplace(tag, layer);
    if (!inserted && it->second != layer) {
      return status::InvalidArgument(
          StrCat("tag '", tag, "' is claimed by both the '", it->second,
                 "' and '", layer, "' layers"));
    }
    return Status::Ok();
  };

  std::set<std::string> backbone_tags;
  for (const RawElement& el : parsed.elements) {
    if (frag_tags.count(el.tag) > 0) continue;
    backbone_tags.insert(el.tag);
  }
  for (const std::string& tag : backbone_tags) {
    CXML_RETURN_IF_ERROR(claim(tag, "text"));
  }
  for (const auto& [unit, events] : parsed.milestones) {
    (void)events;
    CXML_RETURN_IF_ERROR(claim(unit, unit));
  }
  for (const std::string& tag : frag_tags) {
    CXML_RETURN_IF_ERROR(claim(tag, StrCat("frag:", tag)));
  }
  std::set<std::string> standoff_tags;
  for (const StandoffAnnotation& ann : parsed.standoff) {
    if (ann.chars.begin > ann.chars.end ||
        ann.chars.end > parsed.content.size()) {
      return status::InvalidArgument(StrCat(
          "standOff annotation <", ann.tag, "> range [",
          StrFormat("%zu,%zu", ann.chars.begin, ann.chars.end),
          ") exceeds the base text (",
          StrFormat("%zu", parsed.content.size()), " chars)"));
    }
    standoff_tags.insert(ann.tag);
  }
  for (const std::string& tag : standoff_tags) {
    CXML_RETURN_IF_ERROR(claim(tag, "standoff"));
  }

  // Hierarchy registration order is deterministic: backbone first, then
  // milestone units (sorted), fragmented tags (sorted), standoff.
  ImportedDocument out;
  auto cmh = std::make_shared<cmh::ConcurrentHierarchies>(parsed.root_tag);
  out.doc.cmh = cmh;
  auto add_hierarchy = [&](const std::string& name,
                           const std::set<std::string>& tags) -> Status {
    auto dtd = dtd::ParseDtd(DtdFor(parsed.root_tag, tags));
    if (!dtd.ok()) {
      return status::InvalidArgument(StrCat("synthesizing the '", name,
                                            "' hierarchy DTD: ",
                                            dtd.status().message()));
    }
    auto added = cmh->AddHierarchy(name, std::move(dtd).value());
    if (!added.ok()) {
      return status::InvalidArgument(StrCat("registering the '", name,
                                            "' hierarchy: ",
                                            added.status().message()));
    }
    return Status::Ok();
  };

  CXML_RETURN_IF_ERROR(add_hierarchy("text", backbone_tags));
  for (const auto& [unit, events] : parsed.milestones) {
    (void)events;
    CXML_RETURN_IF_ERROR(add_hierarchy(unit, {unit}));
  }
  for (const std::string& tag : frag_tags) {
    CXML_RETURN_IF_ERROR(add_hierarchy(StrCat("frag:", tag), {tag}));
  }
  if (!standoff_tags.empty()) {
    CXML_RETURN_IF_ERROR(add_hierarchy("standoff", standoff_tags));
  }

  // Reduce every layer to logical elements over the shared content.
  std::vector<drivers::LogicalElement> elements;
  elements.reserve(parsed.elements.size() + parsed.standoff.size());
  const cmh::HierarchyId text_h = out.doc.cmh->FindIdByName("text");
  for (RawElement& el : parsed.elements) {
    drivers::LogicalElement le;
    le.hierarchy = frag_tags.count(el.tag) > 0
                       ? out.doc.cmh->FindIdByName(StrCat("frag:", el.tag))
                       : text_h;
    le.tag = std::move(el.tag);
    le.attrs = std::move(el.attrs);
    le.chars = el.chars;
    elements.push_back(std::move(le));
  }
  size_t milestone_spans = 0;
  for (auto& [unit, events] : parsed.milestones) {
    const cmh::HierarchyId h = out.doc.cmh->FindIdByName(unit);
    for (size_t i = 0; i < events.size(); ++i) {
      // Each milestone opens a span running to the next same-unit
      // milestone (or the end of the document).
      drivers::LogicalElement le;
      le.hierarchy = h;
      le.tag = unit;
      le.attrs = std::move(events[i].attrs);
      le.chars = Interval(events[i].offset, i + 1 < events.size()
                                                ? events[i + 1].offset
                                                : parsed.content.size());
      elements.push_back(std::move(le));
      ++milestone_spans;
    }
  }
  const cmh::HierarchyId standoff_h = out.doc.cmh->FindIdByName("standoff");
  for (StandoffAnnotation& ann : parsed.standoff) {
    drivers::LogicalElement le;
    le.hierarchy = standoff_h;
    le.tag = std::move(ann.tag);
    le.attrs = std::move(ann.attrs);
    le.chars = ann.chars;
    elements.push_back(std::move(le));
  }

  out.stats.hierarchies = out.doc.cmh->size();
  out.stats.elements = elements.size();
  out.stats.milestone_spans = milestone_spans;
  out.stats.merged_fragments = merged_chains;
  out.stats.standoff_annotations = parsed.standoff.size();
  out.stats.content_bytes = parsed.content.size();

  auto g = drivers::BuildGoddagFromExtents(*out.doc.cmh,
                                           std::move(parsed.content),
                                           std::move(elements));
  if (!g.ok()) {
    // Same-hierarchy overlap etc.: a convention violation in the input,
    // reported uniformly as InvalidArgument so the wire layer rejects
    // the import without registering anything.
    return status::InvalidArgument(
        StrCat("import failed: ", g.status().message()));
  }
  out.doc.g = std::make_unique<goddag::Goddag>(std::move(g).value());
  return out;
}

}  // namespace cxml::ingest
