#include "gen.h"

#include <algorithm>
#include <map>
#include <random>

#include "common/strings.h"
#include "goddag/builder.h"
#include "storage/binary.h"
#include "workload/generator.h"

namespace cxbench {

using cxml::StrFormat;
using cxml::service::QueryKind;

cxml::Result<Manuscript> MakeManuscript(uint64_t seed, size_t content_chars) {
  cxml::workload::GeneratorParams params;
  params.content_chars = content_chars;
  params.seed = seed;
  CXML_ASSIGN_OR_RETURN(cxml::workload::SyntheticCorpus corpus,
                        cxml::workload::GenerateManuscript(params));
  CXML_ASSIGN_OR_RETURN(cxml::goddag::Goddag g,
                        cxml::goddag::Builder::Build(*corpus.doc));
  Manuscript ms;
  CXML_ASSIGN_OR_RETURN(ms.cxg1, cxml::storage::Save(g));
  ms.content_chars = g.content().size();
  ms.lines = g.ElementsByTag("line").size();
  ms.sentences = g.ElementsByTag("s").size();
  return ms;
}

cxml::Result<ReadPool> MakeTrafficReadPool(uint64_t seed,
                                           size_t content_chars,
                                           size_t connections,
                                           size_t ops_per_stream) {
  ReadPool pool;
  std::map<std::pair<int, std::string>, size_t> index;
  for (size_t c = 0; c < connections; ++c) {
    cxml::workload::TrafficParams params;
    params.num_ops = ops_per_stream;
    params.write_fraction = 0.0;
    params.content_chars = content_chars;
    params.seed = seed * 7919 + c;
    CXML_ASSIGN_OR_RETURN(std::vector<cxml::workload::TrafficOp> ops,
                          cxml::workload::GenerateTraffic(params));
    std::vector<size_t> stream;
    stream.reserve(ops.size());
    for (const cxml::workload::TrafficOp& op : ops) {
      QueryKind kind = op.kind == cxml::workload::TrafficOp::Kind::kXQuery
                           ? QueryKind::kXQuery
                           : QueryKind::kXPath;
      auto key = std::make_pair(static_cast<int>(kind), op.query);
      auto it = index.find(key);
      if (it == index.end()) {
        it = index.emplace(key, pool.queries.size()).first;
        pool.queries.push_back(Query{kind, op.query});
      }
      stream.push_back(it->second);
    }
    pool.streams.push_back(std::move(stream));
  }
  return pool;
}

// ------------------------------------------------------------ read_cold

namespace {

/// Templates of the cold family. Each is injective in (k, w), so no
/// two members share a canonical form (and so a result-cache entry).
constexpr size_t kColdTemplates = 12;

}  // namespace

ColdFamily::ColdFamily(const Manuscript& ms, size_t min_size)
    : lines_(std::max<size_t>(ms.lines, 1)),
      sentences_(std::max<size_t>(ms.sentences, 1)) {
  size_t k_range = std::min(lines_, sentences_);
  widths_ = 1;
  while (kColdTemplates * k_range * widths_ < min_size) ++widths_;
  size_ = kColdTemplates * k_range * widths_;
}

Query ColdFamily::At(size_t i) const {
  size_t k_range = std::min(lines_, sentences_);
  size_t t = i % kColdTemplates;
  size_t j = (i / kColdTemplates) % (k_range * widths_);
  size_t k = j % k_range + 1;
  size_t w = j / k_range + 1;
  Query q;
  switch (t) {
    case 0:
      q.text = StrFormat("//line[@n='%zu']/overlapping::w[position() <= %zu]",
                         k, w);
      break;
    case 1:
      q.text = StrFormat("//w[overlapping::line[@n='%zu']][%zu]", k, w);
      break;
    case 2:
      q.text = StrFormat("count(//line[@n >= %zu and @n <= %zu]//w)", k,
                         k + w);
      break;
    case 3:
      q.text = StrFormat("//s[@n='%zu']/overlapping::line[position() < %zu]",
                         k, w + 1);
      break;
    case 4:
      q.text = StrFormat("//w[ancestor::s[@n='%zu']][position() >= %zu]", k,
                         w);
      break;
    case 5:
      q.text = StrFormat(
          "//line[@n='%zu']/following::line[position() <= %zu]", k, w);
      break;
    case 6:
      q.text = StrFormat(
          "//line[@n='%zu']/overlapping(linguistic)::s[position() <= %zu]",
          k, w);
      break;
    case 7:
      q.text = StrFormat(
          "count(//s[@n >= %zu and @n < %zu]/overlapping(physical)::line)", k,
          k + w);
      break;
    case 8:
      q.text = StrFormat("//a0[overlapping::line[@n >= %zu and @n < %zu]]",
                         k, k + w);
      break;
    case 9:
      q.kind = QueryKind::kXQuery;
      q.text = StrFormat(
          "for $s in //s[@n >= %zu and @n < %zu] "
          "return {count($s/overlapping::line)}",
          k, k + w);
      break;
    case 10:
      q.kind = QueryKind::kXQuery;
      q.text = StrFormat(
          "for $l in //line[@n='%zu'] let $n := count($l/overlapping::s) "
          "return {concat(string($l/@n), '/', string($n + %zu))}",
          k, w);
      break;
    default:
      q.kind = QueryKind::kXQuery;
      q.text = StrFormat(
          "for $x in //line[@n='%zu']/overlapping::w[position() <= %zu] "
          "return {string($x)}",
          k, w);
      break;
  }
  return q;
}

// --------------------------------------------------------- edit_durable

cxml::Result<std::vector<EditSpec>> MakeEditStream(uint64_t seed,
                                                   size_t content_chars,
                                                   size_t count,
                                                   size_t edit_chars) {
  cxml::workload::TrafficParams params;
  params.num_ops = count;
  params.write_fraction = 1.0;
  params.content_chars = content_chars;
  params.edit_chars = edit_chars;
  params.seed = seed * 104729 + 17;
  CXML_ASSIGN_OR_RETURN(std::vector<cxml::workload::TrafficOp> ops,
                        cxml::workload::GenerateTraffic(params));
  std::vector<EditSpec> edits;
  edits.reserve(ops.size());
  for (const cxml::workload::TrafficOp& op : ops) {
    EditSpec e;
    e.ops = {cxml::net::EditOp::Select(op.edit_chars.begin, op.edit_chars.end),
             cxml::net::EditOp::Apply(op.edit_hierarchy, op.edit_tag)};
    e.op_text = cxml::net::RenderOps(e.ops);
    edits.push_back(std::move(e));
  }
  return edits;
}

// --------------------------------------------------------------- corpus

namespace {

constexpr const char* kWords[] = {
    "hwaet",  "we",     "gardena", "in",     "geardagum", "theodcyninga",
    "thrym",  "gefrunon", "hu",    "tha",    "aethelingas", "ellen",
    "fremedon", "oft",  "scyld",   "scefing", "sceathena",  "threatum",
    "monegum", "maegthum", "meodosetla", "ofteah", "egsode", "eorlas",
};
constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);
constexpr const char* kAna[] = {"name", "place", "date", "emph"};

}  // namespace

std::string MakeTeiDocument(uint64_t seed, size_t index,
                            size_t target_chars) {
  std::mt19937_64 rng(seed * 1000003 + index * 7 + 1);
  auto uniform = [&rng](size_t lo, size_t hi) {
    return std::uniform_int_distribution<size_t>(lo, hi)(rng);
  };
  std::string out = StrFormat(
      "<TEI><teiHeader><fileDesc><title>corpus document %zu</title>"
      "</fileDesc></teiHeader><text><body>",
      index);
  size_t content = 0;
  size_t next_folio = 0, next_page = 0, next_line = 0;
  size_t folios = 0, pages = 0, lines = 0;
  size_t divs = 0, paras = 0, sentences = 0, saids = 0;
  // Milestones fire at content offsets, wherever the markup is then.
  auto milestones = [&] {
    if (content >= next_folio) {
      out += StrFormat("<milestone unit=\"folio\" n=\"%zu\"/>", ++folios);
      next_folio += uniform(4500, 5500);
    }
    if (content >= next_page) {
      out += StrFormat("<pb n=\"%zu\"/>", ++pages);
      next_page += uniform(1600, 2000);
    }
    if (content >= next_line) {
      out += StrFormat("<lb n=\"%zu\"/>", ++lines);
      next_line += uniform(56, 72);
    }
  };
  auto words = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      milestones();
      std::string word = kWords[uniform(0, kNumWords - 1)];
      word += ' ';
      out += word;
      content += word.size();
    }
  };
  // A part="I|M|F" chain of <q> runs from the last sentence of one
  // paragraph into the first two sentences of the next.
  bool q_pending = false;
  while (content < target_chars) {
    out += StrFormat("<div n=\"%zu\">", ++divs);
    size_t num_paras = uniform(4, 8);
    for (size_t p = 0; p < num_paras && content < target_chars; ++p) {
      out += StrFormat("<p n=\"%zu\">", ++paras);
      size_t num_sentences = uniform(3, 7);
      // A next=/prev= <said> chain inside this paragraph, when it has
      // room: fragments in sentences `said_at` and `said_at + 2`.
      // Sentences 0 and 1 may carry the tail of a <q> chain.
      size_t said_at = num_sentences >= 5 && uniform(0, 1) == 0
                           ? uniform(2, num_sentences - 3)
                           : num_sentences;
      for (size_t s = 0; s < num_sentences; ++s) {
        out += StrFormat("<s n=\"%zu\">", ++sentences);
        if (q_pending && s == 0) {
          out += "<q part=\"M\">";
          words(uniform(2, 4));
          out += "</q>";
          words(uniform(3, 6));
        } else if (q_pending && s == 1) {
          out += "<q part=\"F\">";
          words(uniform(2, 4));
          out += "</q>";
          q_pending = false;
          words(uniform(3, 6));
        } else if (s == said_at) {
          words(uniform(2, 4));
          out += StrFormat(
              "<said xml:id=\"sd%zu\" next=\"#sd%zu\">", saids + 1,
              saids + 2);
          words(uniform(3, 6));
          out += "</said>";
          words(uniform(2, 5));
        } else if (s == said_at + 2) {
          words(uniform(1, 3));
          out += StrFormat("<said xml:id=\"sd%zu\" prev=\"#sd%zu\">",
                           saids + 2, saids + 1);
          saids += 2;
          words(uniform(3, 6));
          out += "</said>";
          words(uniform(2, 5));
        } else if (s + 1 == num_sentences && !q_pending &&
                   uniform(0, 2) == 0) {
          words(uniform(4, 8));
          out += "<q part=\"I\">";
          words(uniform(2, 5));
          out += "</q>";
          q_pending = true;
        } else {
          words(uniform(8, 16));
        }
        out += "</s>";
      }
      out += "</p>";
    }
    out += "</div>";
  }
  if (q_pending) {
    // Close the open chain in a short trailing paragraph.
    out += StrFormat("<div n=\"%zu\"><p n=\"%zu\"><s n=\"%zu\">", ++divs,
                     ++paras, ++sentences);
    out += "<q part=\"F\">";
    words(2);
    out += "</q></s></p></div>";
  }
  out += "</body></text><standOff>";
  size_t pos = uniform(20, 200);
  while (true) {
    size_t len = uniform(20, 100);
    if (pos + len > content) break;
    out += StrFormat("<span from=\"%zu\" to=\"%zu\" ana=\"%s\"/>", pos,
                     pos + len, kAna[uniform(0, 3)]);
    pos += len + uniform(60, 300);
  }
  out += "</standOff></TEI>";
  return out;
}

std::string CorpusDocName(size_t i) { return StrFormat("corpus/d%06zu", i); }

Query CorpusQuery(uint64_t seed, size_t i) {
  constexpr size_t kTemplates = 8;
  constexpr size_t kRange = 40;
  constexpr size_t kWidths = 16;
  // A seeded offset, so different seeds draw different members.
  size_t j = (i / kTemplates + seed * 131) % (kRange * kWidths);
  size_t t = i % kTemplates;
  size_t k = j % kRange + 1;
  size_t w = j / kRange + 1;
  Query q;
  switch (t) {
    case 0:
      q.text = StrFormat("//s[@n='%zu']/overlapping::line[position() <= %zu]",
                         k, w);
      break;
    case 1:
      q.text = StrFormat(
          "count(//line[@n >= %zu and @n < %zu]/overlapping::s)", k, k + w);
      break;
    case 2:
      q.text = StrFormat("//q[overlapping::s[@n >= %zu and @n < %zu]]", k,
                         k + w);
      break;
    case 3:
      q.kind = QueryKind::kXQuery;
      q.text = StrFormat(
          "for $l in //line[@n='%zu'] return {concat(string($l/@n), ':', "
          "string(count($l/overlapping::s) + %zu))}",
          k, w);
      break;
    case 4:
      q.text = StrFormat(
          "count(//said[overlapping::s[@n >= %zu and @n <= %zu]])", k, k + w);
      break;
    case 5:
      q.text = StrFormat(
          "//line[@n='%zu']/overlapping(text)::s[position() <= %zu]", k, w);
      break;
    case 6:
      q.text = StrFormat("//span[overlapping::line[@n='%zu']][position() <= %zu]",
                         k, w);
      break;
    default:
      q.kind = QueryKind::kXQuery;
      q.text = StrFormat(
          "for $s in //s[@n >= %zu and @n < %zu] "
          "return {count($s/overlapping::page)}",
          k, k + w);
      break;
  }
  return q;
}

}  // namespace cxbench
