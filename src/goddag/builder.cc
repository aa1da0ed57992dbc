#include "goddag/builder.h"

#include <set>

#include "cmh/conflict.h"
#include "common/strings.h"

namespace cxml::goddag {

Status Builder::BuildHierarchy(Goddag* g, HierarchyId h,
                               const dom::Element& root) {
  size_t offset = 0;
  for (const dom::Node* child : root.children()) {
    CXML_RETURN_IF_ERROR(AppendChild(g, h, *child, g->root_, &offset));
  }
  return Status::Ok();
}

Status Builder::AppendChild(Goddag* g, HierarchyId h, const dom::Node& node,
                            NodeId parent, size_t* offset) {
  switch (node.kind()) {
    case dom::NodeKind::kText: {
      const auto& text = static_cast<const dom::Text&>(node);
      size_t end = *offset + text.text().size();
      CXML_RETURN_IF_ERROR(AppendLeaves(g, h, *offset, end, parent));
      *offset = end;
      return Status::Ok();
    }
    case dom::NodeKind::kElement: {
      const auto& el = static_cast<const dom::Element&>(node);
      NodeId id = g->AllocNode(NodeKind::kElement);
      g->tag_.Mutable(id) = g->InternTag(el.tag());
      g->hierarchy_.Mutable(id) = h;
      g->attr_pool_.Replace(&g->attrs_.Mutable(id), 0, 0,
                            el.attributes().begin(), el.attributes().size());
      g->parent_.Mutable(id) = parent;
      size_t begin = *offset;
      g->child_pool_.Append(&g->ChildList(parent, h), id);
      ++g->num_elements_;
      for (const dom::Node* child : el.children()) {
        CXML_RETURN_IF_ERROR(AppendChild(g, h, *child, id, offset));
      }
      g->chars_.Mutable(id) = Interval(begin, *offset);
      return Status::Ok();
    }
    case dom::NodeKind::kComment:
    case dom::NodeKind::kProcessingInstruction:
      // Carry no content; not represented in the GODDAG (documented).
      return Status::Ok();
    case dom::NodeKind::kDocument:
      return status::Internal("document node below root");
  }
  return Status::Ok();
}

Status Builder::AppendLeaves(Goddag* g, HierarchyId h, size_t begin,
                             size_t end, NodeId parent) {
  if (begin == end) return Status::Ok();
  size_t i = g->LeafIndexAtOffset(begin);
  size_t pos = begin;
  while (pos < end) {
    if (i >= g->leaves_.size()) {
      return status::Internal("leaf layer does not cover content");
    }
    NodeId leaf = g->leaves_[i];
    const Interval& iv = g->chars_[leaf];
    if (iv.begin != pos || iv.end > end) {
      return status::Internal(StrFormat(
          "text run [%zu,%zu) does not align with leaf [%zu,%zu); markup "
          "boundaries must induce the leaf partition",
          begin, end, iv.begin, iv.end));
    }
    g->child_pool_.Append(&g->ChildList(parent, h), leaf);
    g->MutableLeafParent(leaf, h) = parent;
    pos = iv.end;
    ++i;
  }
  return Status::Ok();
}

Result<Goddag> Builder::Build(const cmh::DistributedDocument& doc) {
  const cmh::ConcurrentHierarchies& cmh = doc.cmh();
  const size_t num_h = cmh.size();

  // 1. Collect the union of markup boundaries over all hierarchies.
  std::set<size_t> boundary_set;
  boundary_set.insert(0);
  boundary_set.insert(doc.content().size());
  for (size_t i = 0; i < num_h; ++i) {
    for (const auto& extent :
         cmh::ComputeExtents(doc.document(static_cast<HierarchyId>(i)))) {
      boundary_set.insert(extent.chars.begin);
      boundary_set.insert(extent.chars.end);
    }
  }

  // 2. Create the GODDAG skeleton: root + the induced leaf partition.
  // (The constructor's single whole-content leaf is discarded; it stays
  // detached in the arena.)
  Goddag g(doc.content(), num_h, cmh.root_tag());
  g.BindCmh(&cmh);
  g.leaves_.resize(0, kInvalidNode);
  for (PoolSpan& rc : g.root_children_) g.child_pool_.Erase(&rc, 0, rc.size);
  std::vector<size_t> boundaries(boundary_set.begin(), boundary_set.end());
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    NodeId leaf = g.AllocNode(NodeKind::kLeaf);
    g.chars_.Mutable(leaf) = Interval(boundaries[i], boundaries[i + 1]);
    for (HierarchyId h = 0; h < num_h; ++h) {
      g.MutableLeafParent(leaf, h) = g.root_;
    }
    g.leaves_.push_back(leaf);
  }
  g.RenumberLeaves();

  // 3. Hang one extended DOM tree per hierarchy off the shared root and
  //    the shared leaves.
  for (HierarchyId h = 0; h < num_h; ++h) {
    Status st = BuildHierarchy(&g, h, *doc.document(h).root());
    if (!st.ok()) {
      return st.WithContext(
          StrCat("building hierarchy '", cmh.hierarchy(h).name, "'"));
    }
  }
  g.CompactPools();
  return g;
}

}  // namespace cxml::goddag
