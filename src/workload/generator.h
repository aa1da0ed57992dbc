#ifndef CXML_WORKLOAD_GENERATOR_H_
#define CXML_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cmh/distributed_document.h"
#include "cmh/hierarchy.h"
#include "common/interval.h"
#include "common/result.h"

namespace cxml::workload {

/// Parameters of a synthetic manuscript. The generator reproduces the
/// shape of the paper's Boethius manuscript (Figure 1, boethius.h) at
/// any size: a physical hierarchy (pages/lines), a linguistic hierarchy
/// (sentences/words) with boundaries deliberately misaligned with the
/// physical ones, and any number of extra annotation hierarchies
/// (ranges placed uniformly, so they overlap everything else at a
/// controllable rate).
struct GeneratorParams {
  /// Approximate content size in characters.
  size_t content_chars = 10'000;
  /// Characters per physical line (lines per page fixed at 20).
  size_t line_chars = 60;
  /// Mean words per sentence.
  size_t words_per_sentence = 12;
  /// Number of extra annotation hierarchies beyond physical+linguistic
  /// (each contributes `annotation_density` elements per 1000 chars).
  size_t extra_hierarchies = 2;
  /// Annotation elements per 1000 content characters, per extra
  /// hierarchy.
  double annotation_density = 4.0;
  /// Mean annotation length in characters.
  size_t annotation_chars = 80;
  /// RNG seed (generation is deterministic given params).
  uint64_t seed = 42;
};

/// A generated corpus: CMH + distributed document, lifetimes bundled.
struct SyntheticCorpus {
  std::unique_ptr<cmh::ConcurrentHierarchies> cmh;
  std::unique_ptr<cmh::DistributedDocument> doc;
  /// The raw per-hierarchy XML sources (same order as the CMH).
  std::vector<std::string> sources;

  std::vector<std::string_view> SourceViews() const {
    return {sources.begin(), sources.end()};
  }
};

/// Generates a synthetic manuscript. Hierarchy 0 is "physical"
/// (page, line), hierarchy 1 is "linguistic" (s, w), hierarchies 2..N
/// are "ann<k>" with a single element type `a<k>` that may overlap
/// everything.
Result<SyntheticCorpus> GenerateManuscript(const GeneratorParams& params);

// ------------------------------------------------------ service traffic

/// One operation of a synthetic service workload over a generated
/// manuscript: an Extended XPath read, an XQuery read, a markup
/// insertion (an annotation range in one of the extra hierarchies), or
/// a metadata probe (the LIST/STAT verbs a wire client interleaves
/// with queries).
struct TrafficOp {
  enum class Kind { kXPath, kXQuery, kEdit, kStat };
  Kind kind = Kind::kXPath;
  /// Reads: the query string. Metadata probes: "LIST" or "STAT".
  std::string query;
  /// Writes: insert `<edit_tag>` into `edit_hierarchy` over `edit_chars`.
  cmh::HierarchyId edit_hierarchy = 0;
  std::string edit_tag;
  Interval edit_chars;
};

/// Shape of the mixed read/write traffic. Queries are drawn from a
/// fixed pool with a Zipf-like skew (a few hot queries dominate, as in
/// real serving traffic), so caches have something to win on; reads and
/// writes interleave deterministically given the seed.
struct TrafficParams {
  size_t num_ops = 256;
  /// Fraction of operations that are markup insertions.
  double write_fraction = 0.05;
  /// Fraction of non-write operations that are metadata probes
  /// (alternating LIST/STAT); 0 keeps the op stream byte-identical to
  /// the pre-kStat generator for a given seed.
  double stat_fraction = 0.0;
  /// Fraction of *reads* that are XQuery (the rest are XPath).
  double xquery_fraction = 0.25;
  /// Must match the GeneratorParams of the corpus the traffic targets.
  size_t content_chars = 10'000;
  size_t extra_hierarchies = 2;
  /// Length of inserted annotation ranges.
  size_t edit_chars = 40;
  uint64_t seed = 1234;
};

/// Generates a deterministic operation sequence; requires
/// `extra_hierarchies >= 1` when `write_fraction > 0` (writes target
/// the annotation hierarchies).
Result<std::vector<TrafficOp>> GenerateTraffic(const TrafficParams& params);

}  // namespace cxml::workload

#endif  // CXML_WORKLOAD_GENERATOR_H_
