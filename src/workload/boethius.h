#ifndef CXML_WORKLOAD_BOETHIUS_H_
#define CXML_WORKLOAD_BOETHIUS_H_

#include <string>
#include <vector>

#include "cmh/distributed_document.h"
#include "cmh/hierarchy.h"
#include "common/result.h"

namespace cxml::workload {

/// The paper's running example (Figure 1): a fragment of the Old English
/// translation of Boethius' "Consolation of Philosophy" (British Library
/// MS Cotton Otho A. vi) encoded four times over identical content:
///
///   * `physical`    — manuscript lines        (<line>)
///   * `linguistic`  — sentences and words     (<s>, <w>)
///   * `restoration` — editorial restorations  (<res>)
///   * `damage`      — manuscript damage       (<dmg>)
///
/// The figure itself is an image in the paper; this reconstruction
/// preserves its documented conflict structure: a <w> crosses the <line>
/// break, <res> and <dmg> cross word and line boundaries, so the four
/// encodings cannot merge into one well-formed XML document
/// (cmh_test.cc's BoethiusEncodingsConflict checks this).
///
/// All four documents share the root tag `r` (as in the paper) and
/// byte-identical content.

/// Hierarchy names, in document order.
inline constexpr const char* kBoethiusHierarchies[] = {
    "physical", "linguistic", "restoration", "damage"};

/// The shared content of the fragment.
const std::string& BoethiusContent();

/// The four XML encodings (same order as kBoethiusHierarchies).
const std::vector<std::string>& BoethiusSources();

/// The CMH: four single-purpose DTDs sharing root tag "r".
Result<cmh::ConcurrentHierarchies> MakeBoethiusCmh();

/// Convenience: CMH + parsed, consistency-checked distributed document.
/// The CMH is heap-allocated so the DistributedDocument's back-pointer
/// stays valid; keep both alive together.
struct BoethiusCorpus {
  std::unique_ptr<cmh::ConcurrentHierarchies> cmh;
  std::unique_ptr<cmh::DistributedDocument> doc;
};
Result<BoethiusCorpus> MakeBoethiusCorpus();

}  // namespace cxml::workload

#endif  // CXML_WORKLOAD_BOETHIUS_H_
