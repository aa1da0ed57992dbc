#include "workload/generator.h"

#include <random>

#include "common/interval.h"
#include "common/strings.h"
#include "dtd/dtd.h"
#include "xml/writer.h"

namespace cxml::workload {

namespace {

/// ASCII-transliterated Old English vocabulary (ASCII only, so line
/// breaks at arbitrary character offsets never split a UTF-8 sequence).
constexpr const char* kVocabulary[] = {
    "tha",    "se",     "wisdom", "thisne", "leoth",  "asungen",
    "haefde", "ongan",  "eft",    "seggan", "swa",    "hwa",
    "wille",  "wyrcan", "sceal",  "aerest", "onginnan", "thaet",
    "he",     "maege",  "theah",  "hit",    "riht",   "spell",
    "cyning", "folc",   "guma",   "wexeth", "swithe", "mid",
    "ealle",  "monna",  "cynne",  "weorold", "gesceaft", "dryhten",
};
constexpr size_t kVocabularySize =
    sizeof(kVocabulary) / sizeof(kVocabulary[0]);

/// Lines per page in the physical hierarchy.
constexpr size_t kLinesPerPage = 20;

struct WordSpan {
  Interval chars;
};

}  // namespace

Result<SyntheticCorpus> GenerateManuscript(const GeneratorParams& params) {
  if (params.content_chars == 0 || params.line_chars == 0 ||
      params.words_per_sentence == 0) {
    return status::InvalidArgument(
        "generator parameters must be positive");
  }
  std::mt19937_64 rng(params.seed);

  // ---- content + word boundaries ----
  std::string content;
  content.reserve(params.content_chars + 16);
  std::vector<WordSpan> words;
  std::uniform_int_distribution<size_t> pick_word(0, kVocabularySize - 1);
  while (content.size() < params.content_chars) {
    if (!content.empty()) content.push_back(' ');
    const char* word = kVocabulary[pick_word(rng)];
    size_t begin = content.size();
    content.append(word);
    words.push_back({Interval(begin, content.size())});
  }

  SyntheticCorpus corpus;
  corpus.cmh = std::make_unique<cmh::ConcurrentHierarchies>("r");

  // ---- hierarchy 0: physical (page, line) ----
  {
    auto dtd = dtd::ParseDtd(
        "<!ELEMENT r (page+)>"
        "<!ELEMENT page (line+)>"
        "<!ELEMENT line (#PCDATA)>"
        "<!ATTLIST page n CDATA #REQUIRED>"
        "<!ATTLIST line n CDATA #REQUIRED>");
    if (!dtd.ok()) return dtd.status();
    CXML_RETURN_IF_ERROR(
        corpus.cmh->AddHierarchy("physical", std::move(dtd).value())
            .status());
    xml::XmlWriter writer;
    writer.StartElement("r");
    size_t pos = 0;
    size_t line_no = 1;
    size_t page_no = 1;
    bool page_open = false;
    while (pos < content.size()) {
      if (!page_open) {
        writer.StartElement(
            "page", {{"n", StrFormat("%zu", page_no++)}});
        page_open = true;
      }
      size_t end = std::min(pos + params.line_chars, content.size());
      writer.StartElement("line", {{"n", StrFormat("%zu", line_no)}});
      writer.Text(std::string_view(content).substr(pos, end - pos));
      writer.EndElement();
      pos = end;
      if (line_no % kLinesPerPage == 0 || pos >= content.size()) {
        writer.EndElement();  // page
        page_open = false;
      }
      ++line_no;
    }
    if (content.empty()) {
      // Degenerate case: one empty page/line pair keeps the DTD happy.
      writer.StartElement("page", {{"n", "1"}});
      writer.EmptyElement("line", {{"n", "1"}});
      writer.EndElement();
    }
    writer.EndElement();  // r
    CXML_ASSIGN_OR_RETURN(std::string doc, writer.Finish());
    corpus.sources.push_back(std::move(doc));
  }

  // ---- hierarchy 1: linguistic (s, w) ----
  {
    auto dtd = dtd::ParseDtd(
        "<!ELEMENT r (#PCDATA|s)*>"
        "<!ELEMENT s (#PCDATA|w)*>"
        "<!ELEMENT w (#PCDATA)>"
        "<!ATTLIST s n CDATA #IMPLIED>");
    if (!dtd.ok()) return dtd.status();
    CXML_RETURN_IF_ERROR(
        corpus.cmh->AddHierarchy("linguistic", std::move(dtd).value())
            .status());
    xml::XmlWriter writer;
    writer.StartElement("r");
    std::uniform_int_distribution<size_t> jitter(
        params.words_per_sentence / 2 + 1,
        params.words_per_sentence * 3 / 2 + 1);
    size_t pos = 0;
    size_t i = 0;
    size_t sentence_no = 1;
    while (i < words.size()) {
      size_t take = std::min(jitter(rng), words.size() - i);
      // Inter-sentence space lives directly under <r>.
      if (words[i].chars.begin > pos) {
        writer.Text(std::string_view(content)
                        .substr(pos, words[i].chars.begin - pos));
        pos = words[i].chars.begin;
      }
      writer.StartElement("s", {{"n", StrFormat("%zu", sentence_no++)}});
      for (size_t k = 0; k < take; ++k, ++i) {
        if (words[i].chars.begin > pos) {
          writer.Text(std::string_view(content)
                          .substr(pos, words[i].chars.begin - pos));
        }
        writer.StartElement("w");
        writer.Text(std::string_view(content)
                        .substr(words[i].chars.begin,
                                words[i].chars.length()));
        writer.EndElement();
        pos = words[i].chars.end;
      }
      writer.EndElement();  // s
    }
    if (pos < content.size()) {
      writer.Text(std::string_view(content).substr(pos));
    }
    writer.EndElement();  // r
    CXML_ASSIGN_OR_RETURN(std::string doc, writer.Finish());
    corpus.sources.push_back(std::move(doc));
  }

  // ---- hierarchies 2..: flat annotation ranges ----
  for (size_t k = 0; k < params.extra_hierarchies; ++k) {
    std::string tag = StrFormat("a%zu", k);
    auto dtd = dtd::ParseDtd(StrFormat(
        "<!ELEMENT r (#PCDATA|%s)*>"
        "<!ELEMENT %s (#PCDATA)>"
        "<!ATTLIST %s n CDATA #IMPLIED>",
        tag.c_str(), tag.c_str(), tag.c_str()));
    if (!dtd.ok()) return dtd.status();
    CXML_RETURN_IF_ERROR(
        corpus.cmh->AddHierarchy(StrFormat("ann%zu", k),
                                 std::move(dtd).value())
            .status());
    // Non-overlapping random ranges within this hierarchy; free to
    // overlap everything in the other hierarchies.
    double target = params.annotation_density *
                    static_cast<double>(content.size()) / 1000.0;
    size_t count = target < 1 ? 1 : static_cast<size_t>(target);
    size_t covered = count * params.annotation_chars;
    size_t mean_gap =
        covered >= content.size()
            ? 1
            : std::max<size_t>(1, (content.size() - covered) / (count + 1));
    std::uniform_int_distribution<size_t> gap_dist(1, 2 * mean_gap);
    std::uniform_int_distribution<size_t> len_dist(
        std::max<size_t>(1, params.annotation_chars / 2),
        params.annotation_chars * 3 / 2);

    // Density 0 places none; any positive density at least one.
    std::vector<Interval> ranges;
    size_t pos = params.annotation_density > 0
                     ? gap_dist(rng) % std::max<size_t>(1, content.size())
                     : content.size();
    while (pos < content.size()) {
      size_t len = len_dist(rng);
      size_t end = std::min(pos + len, content.size());
      if (end > pos) ranges.push_back(Interval(pos, end));
      pos = end + gap_dist(rng);
    }

    xml::XmlWriter writer;
    writer.StartElement("r");
    size_t cursor = 0;
    size_t n = 1;
    for (const Interval& range : ranges) {
      if (range.begin > cursor) {
        writer.Text(std::string_view(content)
                        .substr(cursor, range.begin - cursor));
      }
      writer.StartElement(tag, {{"n", StrFormat("%zu", n++)}});
      writer.Text(
          std::string_view(content).substr(range.begin, range.length()));
      writer.EndElement();
      cursor = range.end;
    }
    if (cursor < content.size()) {
      writer.Text(std::string_view(content).substr(cursor));
    }
    writer.EndElement();
    CXML_ASSIGN_OR_RETURN(std::string doc, writer.Finish());
    corpus.sources.push_back(std::move(doc));
  }

  CXML_ASSIGN_OR_RETURN(
      cmh::DistributedDocument doc,
      cmh::DistributedDocument::Parse(*corpus.cmh, corpus.SourceViews()));
  corpus.doc = std::make_unique<cmh::DistributedDocument>(std::move(doc));
  return corpus;
}

Result<std::vector<TrafficOp>> GenerateTraffic(const TrafficParams& params) {
  if (params.write_fraction > 0 && params.extra_hierarchies == 0) {
    return status::InvalidArgument(
        "write traffic needs >= 1 annotation hierarchy to write into");
  }
  if (params.write_fraction < 0 || params.write_fraction > 1 ||
      params.stat_fraction < 0 || params.stat_fraction > 1 ||
      params.xquery_fraction < 0 || params.xquery_fraction > 1) {
    return status::InvalidArgument("traffic fractions must be in [0,1]");
  }
  std::mt19937_64 rng(params.seed);

  // Read pool, roughly ordered hottest-first; the skewed index draw
  // below makes the head of each pool dominate.
  const std::vector<std::string> xpath_pool = {
      "count(//w)",
      "//w[overlapping::line]",
      "//line",
      "string(//line[@n='2'])",
      "count(//a0)",
      "//s[position() <= 3]",
      "//w[contains(., 'a')]",
      "count(//page/line)",
      "//a0[overlapping::w]",
      "//line[@n='1']/following-sibling::line",
  };
  const std::vector<std::string> xquery_pool = {
      "for $w in //w[overlapping::line] return {string($w)}",
      "let $n := count(//s) return {concat('sentences: ', string($n))}",
      "for $a in //a0 where overlap-degree($a) > 0 "
      "return {string($a/@n)}",
      "for $l in //line where count($l/overlapping::s) > 0 "
      "return {string($l/@n)}",
  };
  // P(i) ~ 2^-i over the pool: i = trailing-geometric draw.
  auto skewed_index = [&rng](size_t size) -> size_t {
    std::geometric_distribution<size_t> geo(0.5);
    return std::min(geo(rng), size - 1);
  };

  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<size_t> pick_hierarchy(
      0, params.extra_hierarchies - 1);
  size_t max_start = params.content_chars > params.edit_chars
                         ? params.content_chars - params.edit_chars
                         : 0;
  std::uniform_int_distribution<size_t> pick_start(0, max_start);

  std::vector<TrafficOp> ops;
  ops.reserve(params.num_ops);
  size_t stats_emitted = 0;
  for (size_t i = 0; i < params.num_ops; ++i) {
    TrafficOp op;
    // The stat coin is only drawn when the feature is on, so seeds
    // from before kStat existed keep producing the same op stream.
    double write_roll = coin(rng);
    if (write_roll >= params.write_fraction && params.stat_fraction > 0 &&
        coin(rng) < params.stat_fraction) {
      op.kind = TrafficOp::Kind::kStat;
      op.query = (stats_emitted++ % 2 == 0) ? "LIST" : "STAT";
      ops.push_back(std::move(op));
      continue;
    }
    if (write_roll < params.write_fraction) {
      size_t k = pick_hierarchy(rng);
      op.kind = TrafficOp::Kind::kEdit;
      // Hierarchies 0/1 are physical/linguistic; annotations start at 2.
      op.edit_hierarchy = static_cast<cmh::HierarchyId>(2 + k);
      op.edit_tag = StrFormat("a%zu", k);
      size_t begin = pick_start(rng);
      op.edit_chars = Interval(
          begin, std::min(begin + params.edit_chars, params.content_chars));
    } else if (coin(rng) < params.xquery_fraction) {
      op.kind = TrafficOp::Kind::kXQuery;
      op.query = xquery_pool[skewed_index(xquery_pool.size())];
    } else {
      op.kind = TrafficOp::Kind::kXPath;
      op.query = xpath_pool[skewed_index(xpath_pool.size())];
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace cxml::workload
