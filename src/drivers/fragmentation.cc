#include "drivers/fragmentation.h"

#include <algorithm>
#include <map>

#include "cmh/conflict.h"
#include "common/strings.h"
#include "dom/document.h"
#include "dom/traversal.h"
#include "goddag/algebra.h"
#include "xml/writer.h"

namespace cxml::drivers {

namespace {

/// A consistent nesting order for the elements covering one leaf: outer
/// (earlier start, later end) first; ties by hierarchy id then node id.
struct CoverLess {
  const goddag::Goddag* g;
  bool operator()(goddag::NodeId a, goddag::NodeId b) const {
    Interval ia = g->char_range(a);
    Interval ib = g->char_range(b);
    if (ia.begin != ib.begin) return ia.begin < ib.begin;
    if (ia.end != ib.end) return ia.end > ib.end;
    if (g->hierarchy(a) != g->hierarchy(b)) {
      return g->hierarchy(a) < g->hierarchy(b);
    }
    return a < b;
  }
};

/// Shared stack walk over the leaf sequence. Calls:
///   on_close(node)        — node leaves the open stack,
///   on_open(node)         — node (re-)enters the open stack,
///   on_boundary(pos)      — between closes and opens at a boundary,
///   on_leaf(leaf)         — the leaf itself.
template <typename Close, typename Open, typename Boundary, typename Leaf>
void WalkChunks(const goddag::Goddag& g, const goddag::ExtentIndex& index,
                Close on_close, Open on_open, Boundary on_boundary,
                Leaf on_leaf) {
  std::vector<goddag::NodeId> stack;
  for (size_t i = 0; i < g.num_leaves(); ++i) {
    goddag::NodeId leaf = g.leaf_at(i);
    Interval span = g.char_range(leaf);
    std::vector<goddag::NodeId> cover;
    for (goddag::NodeId e : index.Intersecting(span)) {
      if (g.char_range(e).Contains(span)) cover.push_back(e);
    }
    std::sort(cover.begin(), cover.end(), CoverLess{&g});

    size_t lcp = 0;
    while (lcp < stack.size() && lcp < cover.size() &&
           stack[lcp] == cover[lcp]) {
      ++lcp;
    }
    for (size_t k = stack.size(); k-- > lcp;) on_close(stack[k]);
    stack.resize(lcp);
    on_boundary(span.begin);
    for (size_t k = lcp; k < cover.size(); ++k) {
      on_open(cover[k]);
      stack.push_back(cover[k]);
    }
    on_leaf(leaf);
  }
  for (size_t k = stack.size(); k-- > 0;) on_close(stack[k]);
  on_boundary(g.content().size());
}

}  // namespace

Result<std::string> ExportFragmentation(const goddag::Goddag& g) {
  goddag::ExtentIndex index(g);

  // Pass 1: count the fragments each element will be cut into.
  std::map<goddag::NodeId, int> total_fragments;
  WalkChunks(
      g, index, /*on_close=*/[&](goddag::NodeId) {},
      /*on_open=*/[&](goddag::NodeId node) { ++total_fragments[node]; },
      /*on_boundary=*/[&](size_t) {}, /*on_leaf=*/[&](goddag::NodeId) {});

  // Zero-width elements, grouped by position.
  std::map<size_t, std::vector<goddag::NodeId>> milestones;
  for (goddag::NodeId e : g.AllElements()) {
    if (g.char_range(e).empty()) {
      milestones[g.char_range(e).begin].push_back(e);
    }
  }

  // Pass 2: emit.
  xml::XmlWriter writer;
  writer.StartElement(g.root_tag());
  std::map<goddag::NodeId, int> frag_ids;
  std::map<goddag::NodeId, int> emitted;
  int next_frag_id = 1;
  WalkChunks(
      g, index,
      /*on_close=*/[&](goddag::NodeId) { writer.EndElement(); },
      /*on_open=*/
      [&](goddag::NodeId node) {
        int total = total_fragments[node];
        Span<xml::Attribute> own = g.attributes(node);
        std::vector<xml::Attribute> attrs(own.begin(), own.end());
        if (total > 1) {
          auto [it, inserted] = frag_ids.emplace(node, next_frag_id);
          if (inserted) ++next_frag_id;
          int idx = emitted[node]++;
          attrs.push_back({"cx-id", StrFormat("f%d", it->second)});
          const char* part =
              idx == 0 ? "I" : (idx == total - 1 ? "F" : "M");
          attrs.push_back({"cx-part", part});
        }
        writer.StartElement(g.tag(node), attrs);
      },
      /*on_boundary=*/
      [&](size_t pos) {
        auto it = milestones.find(pos);
        if (it == milestones.end()) return;
        for (goddag::NodeId m : it->second) {
          writer.EmptyElement(g.tag(m), g.attributes(m));
        }
        milestones.erase(it);
      },
      /*on_leaf=*/
      [&](goddag::NodeId leaf) { writer.Text(g.text(leaf)); });
  // Any milestones at positions not visited (empty documents).
  for (auto& [pos, nodes] : milestones) {
    (void)pos;
    for (goddag::NodeId m : nodes) {
      writer.EmptyElement(g.tag(m), g.attributes(m));
    }
  }
  writer.EndElement();  // root
  return writer.Finish();
}

Result<goddag::Goddag> ImportFragmentation(
    const cmh::ConcurrentHierarchies& cmh, std::string_view source) {
  CXML_ASSIGN_OR_RETURN(auto doc, dom::ParseDocument(source));
  if (doc->root() == nullptr || doc->root()->tag() != cmh.root_tag()) {
    return status::ValidationError(
        StrCat("fragmentation document must have root '", cmh.root_tag(),
               "'"));
  }
  std::vector<cmh::ElementExtent> extents = cmh::ComputeExtents(*doc);
  std::string content = doc->root()->TextContent();

  // Group fragments by cx-id; unfragmented elements pass through.
  std::vector<LogicalElement> logical;
  std::map<std::string, size_t> by_frag_id;
  for (const auto& extent : extents) {
    if (extent.element == doc->root()) continue;
    cmh::HierarchyId h = cmh.HierarchyOf(extent.tag);
    if (h == cmh::kInvalidHierarchy) {
      return status::ValidationError(
          StrCat("element '", extent.tag, "' belongs to no hierarchy"));
    }
    const std::string* frag = extent.element->FindAttribute("cx-id");
    if (frag == nullptr) {
      LogicalElement el;
      el.hierarchy = h;
      el.tag = extent.tag;
      el.attrs = extent.element->attributes();
      el.chars = extent.chars;
      logical.push_back(std::move(el));
      continue;
    }
    auto it = by_frag_id.find(*frag);
    if (it == by_frag_id.end()) {
      LogicalElement el;
      el.hierarchy = h;
      el.tag = extent.tag;
      for (const auto& a : extent.element->attributes()) {
        if (a.name != "cx-id" && a.name != "cx-part") el.attrs.push_back(a);
      }
      el.chars = extent.chars;
      by_frag_id.emplace(*frag, logical.size());
      logical.push_back(std::move(el));
    } else {
      LogicalElement& el = logical[it->second];
      if (el.tag != extent.tag) {
        return status::ValidationError(StrCat(
            "fragments of '", *frag, "' have differing tags ('", el.tag,
            "' vs '", extent.tag, "')"));
      }
      el.chars = el.chars.Union(extent.chars);
    }
  }
  return BuildGoddagFromExtents(cmh, std::move(content),
                                std::move(logical));
}

}  // namespace cxml::drivers
