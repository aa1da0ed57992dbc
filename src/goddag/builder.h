#ifndef CXML_GODDAG_BUILDER_H_
#define CXML_GODDAG_BUILDER_H_

#include <vector>

#include "cmh/distributed_document.h"
#include "common/result.h"
#include "goddag/goddag.h"

namespace cxml::goddag {

/// DOM-based GODDAG construction (paper §3): "we first divide the document
/// content into leaf nodes (fragments), where the borders are given by
/// markup positions from all hierarchies ... Each markup structure is
/// represented as an extended DOM tree ... then all trees are united at
/// the root and at the leaf level."
///
/// The streaming alternative is sacx::SacxParser; tests assert both
/// constructions produce isomorphic GODDAGs.
class Builder {
 public:
  /// Builds the GODDAG of a distributed document. The returned Goddag has
  /// the document's CMH bound.
  static Result<Goddag> Build(const cmh::DistributedDocument& doc);

 private:
  // NOTE: these helpers must always resolve the parent's child list
  // freshly through the Goddag — a write may copy the chunk a list's
  // span lives in, and an append may move a list within its pool, so a
  // cached reference or pointer into either dangles.
  static Status BuildHierarchy(Goddag* g, HierarchyId h,
                               const dom::Element& root);
  static Status AppendChild(Goddag* g, HierarchyId h, const dom::Node& node,
                            NodeId parent, size_t* offset);
  static Status AppendLeaves(Goddag* g, HierarchyId h, size_t begin,
                             size_t end, NodeId parent);
};

}  // namespace cxml::goddag

#endif  // CXML_GODDAG_BUILDER_H_
