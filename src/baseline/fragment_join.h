#ifndef CXML_BASELINE_FRAGMENT_JOIN_H_
#define CXML_BASELINE_FRAGMENT_JOIN_H_

#include <string>
#include <vector>

#include "common/interval.h"
#include "common/result.h"
#include "dom/document.h"

namespace cxml::baseline {

/// The *traditional* processing model the paper argues against: the
/// document lives as one DOM tree in the fragmentation representation,
/// and every concurrent-markup question requires reassembling logical
/// elements from their fragments by joining on the glue ids — the cost a
/// standard XPath/XSLT user pays today.
///
/// Used by bench/bench_query as the comparator for the GODDAG
/// `overlapping` axis; integration_test.cc's
/// GoddagAndBaselineAgreeOnSyntheticCorpus checks both give the same
/// answers.

/// One logical element reassembled from fragments.
struct JoinedElement {
  std::string tag;
  Interval chars;
  /// Fragment elements composing it (document order).
  std::vector<const dom::Element*> fragments;
};

/// Reassembles every logical element of a fragmentation-encoded DOM:
/// walks the tree, computes character offsets, groups by `cx-id`.
/// This is the per-query cost of the baseline (no precomputation).
std::vector<JoinedElement> JoinFragments(const dom::Document& doc);

/// The overlap query on the baseline: all (a, b) logical-element pairs
/// with the given tags whose reassembled extents properly overlap.
/// Runs JoinFragments + a nested filter, exactly what a stylesheet would
/// express with id()/key() joins.
std::vector<std::pair<const JoinedElement*, const JoinedElement*>>
FindOverlappingPairsBaseline(const std::vector<JoinedElement>& joined,
                             std::string_view tag_a, std::string_view tag_b);

/// Counts logical elements of `tag` (requires the join to dedupe
/// fragments) — the baseline for simple counting queries.
size_t CountLogicalElements(const std::vector<JoinedElement>& joined,
                            std::string_view tag);

}  // namespace cxml::baseline

#endif  // CXML_BASELINE_FRAGMENT_JOIN_H_
