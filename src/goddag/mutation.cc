// Mutation operations of the GODDAG (declared in goddag.h): leaf
// splitting, element insertion over a character range, and element
// removal. These are the primitives the xTagger-style editor (edit/)
// builds on.

#include <algorithm>

#include "common/strings.h"
#include "goddag/goddag.h"

namespace cxml::goddag {

namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

/// Finds `needle` in `list` and returns its index, or kNpos.
size_t IndexOf(Span<NodeId> list, NodeId needle) {
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i] == needle) return i;
  }
  return kNpos;
}

/// IndexOf searching from the back.
size_t LastIndexOf(Span<NodeId> list, NodeId needle) {
  for (size_t i = list.size(); i-- > 0;) {
    if (list[i] == needle) return i;
  }
  return kNpos;
}

}  // namespace

Result<NodeId> Goddag::SplitLeafAt(size_t offset) {
  if (offset == 0 || offset >= content_->size()) {
    return status::OutOfRange(StrFormat(
        "split offset %zu outside (0, %zu)", offset, content_->size()));
  }
  size_t i = LeafIndexAtOffset(offset);
  NodeId left = leaves_[i];
  if (chars_[left].begin == offset) return left;  // already a boundary

  // Shrink the left leaf, create the right leaf.
  Interval old = chars_[left];
  chars_.Mutable(left) = Interval(old.begin, offset);
  NodeId right = AllocNode(NodeKind::kLeaf);
  chars_.Mutable(right) = Interval(offset, old.end);
  for (HierarchyId h = 0; h < num_hierarchies_; ++h) {
    MutableLeafParent(right, h) = LeafParent(left, h);
  }
  leaves_.Insert(i + 1, right);
  // Only the leaves from the new one on moved. Loading a snapshot splits
  // once per element boundary, mostly near the end of the leaf layer, so
  // renumbering every leaf made it quadratic.
  for (size_t j = i + 1; j < leaves_.size(); ++j) {
    leaf_index_.Mutable(leaves_[j]) = static_cast<uint32_t>(j);
  }

  // Register the right leaf as a sibling immediately after the left one
  // in every hierarchy's parent. The search runs from the back because
  // loading a snapshot splits near the end of those lists.
  for (HierarchyId h = 0; h < num_hierarchies_; ++h) {
    PoolSpan& siblings = ChildList(LeafParent(left, h), h);
    size_t at = LastIndexOf(child_pool_.View(siblings), left);
    if (at == kNpos) {
      return status::Internal(
          "leaf missing from its parent's child list during split");
    }
    child_pool_.Insert(&siblings, at + 1, right);
  }
  return right;
}

Result<NodeId> Goddag::InsertElement(HierarchyId h, std::string_view tag,
                                     std::vector<xml::Attribute> attrs,
                                     const Interval& chars) {
  if (h >= num_hierarchies_) {
    return status::InvalidArgument(
        StrFormat("hierarchy %u out of range", h));
  }
  if (chars.begin > chars.end || chars.end > content_->size()) {
    return status::OutOfRange(StrFormat(
        "character range [%zu,%zu) outside content of size %zu", chars.begin,
        chars.end, content_->size()));
  }
  if (cmh_ != nullptr && !cmh_->hierarchy(h).Covers(tag)) {
    return status::ValidationError(
        StrCat("element '", std::string(tag), "' is not declared in ",
               "hierarchy '", cmh_->hierarchy(h).name, "'"));
  }

  // Align the range with the leaf partition.
  if (chars.begin > 0 && chars.begin < content_->size()) {
    CXML_RETURN_IF_ERROR(SplitLeafAt(chars.begin).status());
  }
  if (chars.end > 0 && chars.end < content_->size()) {
    CXML_RETURN_IF_ERROR(SplitLeafAt(chars.end).status());
  }
  Interval leaf_span = LeavesCovering(chars);

  // Locate the would-be parent: the innermost node of hierarchy `h` whose
  // extent contains `chars`.
  NodeId parent = root_;
  if (!leaves_.empty()) {
    size_t probe_index =
        leaf_span.empty()
            ? (leaf_span.begin < leaves_.size() ? leaf_span.begin
                                                : leaves_.size() - 1)
            : leaf_span.begin;
    NodeId candidate = LeafParent(leaves_[probe_index], h);
    while (candidate != root_ && !chars_[candidate].Contains(chars)) {
      candidate = parent_[candidate];
    }
    parent = candidate;
  }

  // Allocated before the checks, so a rejected insert still takes a
  // slot; on a later error return the node stays detached in the arena
  // (harmless).
  NodeId node = AllocNode(NodeKind::kElement);

  // The covered children must form a contiguous, *whole* slice: an
  // existing same-hierarchy element straddling the boundary would make
  // the hierarchy non-well-formed. Read through ChildSpan, so a rejected
  // insert writes no chunk of the child-list array.
  //
  // Siblings tile the parent's extent in order (I4), so their begins and
  // ends both ascend: the ones ending at or before chars.begin, and from
  // the first starting at or after chars.end on, can neither overlap
  // `chars` nor be covered by it. Only the window between is scanned.
  Span<NodeId> siblings = child_pool_.View(ChildSpan(parent, h));
  const size_t first_after = static_cast<size_t>(
      std::partition_point(siblings.begin(), siblings.end(),
                           [&](NodeId n) {
                             return chars_[n].end <= chars.begin;
                           }) -
      siblings.begin());
  size_t slice_begin = siblings.size();
  size_t slice_end = siblings.size();
  for (size_t i = first_after; i < siblings.size(); ++i) {
    const Interval& ci = chars_[siblings[i]];
    if (ci.begin >= chars.end) break;
    if (ci.Overlaps(chars)) {
      return status::FailedPrecondition(StrCat(
          "inserting '", std::string(tag), "' over [",
          StrFormat("%zu,%zu", chars.begin, chars.end), ") would overlap ",
          "element '", this->tag(siblings[i]),
          "' of the same hierarchy — within a hierarchy markup must nest"));
    }
    // Non-empty children are covered when fully contained; zero-width
    // children (milestones) only when strictly inside — a milestone at
    // either boundary deterministically stays outside the new element.
    bool covered =
        !chars.empty() &&
        (ci.empty() ? (chars.begin < ci.begin && ci.begin < chars.end)
                    : chars.Contains(ci));
    if (covered) {
      if (slice_begin == siblings.size()) slice_begin = i;
      slice_end = i + 1;
    }
  }
  if (slice_begin == siblings.size()) {
    // Empty new element (milestone) or no covered children: insert
    // before the first child that does not end at or before
    // chars.begin. A non-empty child starting before chars.begin and
    // containing it would have been the parent instead, so this
    // position is correct.
    slice_begin = first_after;
    slice_end = slice_begin;
  }

  // The covered slice moves under the new node, which takes its place.
  // Copied out first: the pool writes below may move `siblings`.
  std::vector<NodeId> covered(siblings.begin() + slice_begin,
                              siblings.begin() + slice_end);
  tag_.Mutable(node) = InternTag(tag);
  hierarchy_.Mutable(node) = h;
  attr_pool_.Replace(&attrs_.Mutable(node), 0, 0,
                     std::make_move_iterator(attrs.begin()), attrs.size());
  parent_.Mutable(node) = parent;
  chars_.Mutable(node) = chars;
  child_pool_.Replace(&children_.Mutable(node), 0, 0, covered.begin(),
                      covered.size());
  for (NodeId child : covered) {
    if (is_leaf(child)) {
      MutableLeafParent(child, h) = node;
    } else {
      parent_.Mutable(child) = node;
    }
  }
  child_pool_.Replace(&ChildList(parent, h), slice_begin,
                      slice_end - slice_begin, &node, 1);
  ++num_elements_;
  return node;
}

Status Goddag::RemoveElement(NodeId element) {
  if (element >= kind_.size() || !is_element(element)) {
    return status::InvalidArgument("RemoveElement expects an element node");
  }
  NodeId parent = parent_[element];
  if (parent == kInvalidNode) {
    return status::FailedPrecondition("element is already detached");
  }
  HierarchyId h = hierarchy_[element];
  size_t at = IndexOf(child_pool_.View(ChildSpan(parent, h)), element);
  if (at == kNpos) {
    return status::Internal("element missing from its parent's child list");
  }
  // Splice children into the parent at the element's position.
  Span<NodeId> own = children(element);
  std::vector<NodeId> kids(own.begin(), own.end());
  child_pool_.Release(&children_.Mutable(element));
  child_pool_.Replace(&ChildList(parent, h), at, 1, kids.begin(),
                      kids.size());
  for (NodeId child : kids) {
    if (is_leaf(child)) {
      MutableLeafParent(child, h) = parent;
    } else {
      parent_.Mutable(child) = parent;
    }
  }
  parent_.Mutable(element) = kInvalidNode;
  --num_elements_;
  return Status::Ok();
}


namespace {

/// Position remapping for DeleteText: positions inside [d1,d2) collapse
/// to d1, later positions shift left.
size_t MapDeleted(size_t x, size_t d1, size_t d2) {
  if (x <= d1) return x;
  if (x >= d2) return x - (d2 - d1);
  return d1;
}

}  // namespace

Status Goddag::InsertText(size_t offset, std::string_view text) {
  if (offset > content_->size()) {
    return status::OutOfRange(StrFormat(
        "insert offset %zu outside content of size %zu", offset,
        content_->size()));
  }
  if (text.empty()) return Status::Ok();

  if (leaves_.empty()) {
    // Empty document: create the first leaf under every root list.
    MutableContent().append(text);
    NodeId leaf = AllocNode(NodeKind::kLeaf);
    chars_.Mutable(leaf) = Interval(0, content_->size());
    leaves_.push_back(leaf);
    for (HierarchyId h = 0; h < num_hierarchies_; ++h) {
      MutableLeafParent(leaf, h) = root_;
      child_pool_.Append(&root_children_[h], leaf);
    }
    RenumberLeaves();
    chars_.Mutable(root_) = Interval(0, content_->size());
    return Status::Ok();
  }

  // The absorbing leaf: the one containing `offset`; appending at the
  // very end extends the last leaf.
  size_t index = offset == content_->size() ? leaves_.size() - 1
                                            : LeafIndexAtOffset(offset);
  NodeId absorbing = leaves_[index];
  const size_t b = chars_[absorbing].begin;
  const size_t e = chars_[absorbing].end;
  const size_t len = text.size();

  MutableContent().insert(offset, text);
  // Extents are unions of leaves, so every node either contains the
  // absorbing leaf (grow), lies entirely after it (shift), or is
  // untouched. Detached nodes are adjusted too, keeping them harmless.
  chars_.ForEachChunkMutable([&](size_t first, Interval* ivs, size_t count) {
    for (size_t k = 0; k < count; ++k) {
      Interval& iv = ivs[k];
      if (first + k == absorbing ||
          (iv.begin <= b && iv.end >= e && !(iv.begin == iv.end))) {
        if (iv.begin <= b && iv.end >= e) iv.end += len;
        continue;
      }
      if (iv.begin >= e) {
        iv.begin += len;
        iv.end += len;
      }
    }
  });
  return Status::Ok();
}

Status Goddag::DeleteText(const Interval& range) {
  if (range.end > content_->size() || range.begin > range.end) {
    return status::OutOfRange(StrFormat(
        "delete range [%zu,%zu) outside content of size %zu", range.begin,
        range.end, content_->size()));
  }
  if (range.empty()) return Status::Ok();
  const size_t d1 = range.begin;
  const size_t d2 = range.end;

  // Align the range with the leaf partition, then drop whole leaves.
  if (d1 > 0 && d1 < content_->size()) {
    CXML_RETURN_IF_ERROR(SplitLeafAt(d1).status());
  }
  if (d2 > 0 && d2 < content_->size()) {
    CXML_RETURN_IF_ERROR(SplitLeafAt(d2).status());
  }
  Interval doomed = LeavesCovering(Interval(d1, d2));
  for (size_t i = doomed.begin; i < doomed.end; ++i) {
    for (HierarchyId h = 0; h < num_hierarchies_; ++h) {
      UnlinkLeaf(leaves_[i], h);
    }
  }
  leaves_.Erase(doomed.begin, doomed.end);
  RenumberLeaves();

  chars_.ForEachChunkMutable([&](size_t, Interval* ivs, size_t count) {
    for (size_t k = 0; k < count; ++k) {
      ivs[k].begin = MapDeleted(ivs[k].begin, d1, d2);
      ivs[k].end = MapDeleted(ivs[k].end, d1, d2);
    }
  });
  MutableContent().erase(d1, d2 - d1);
  return Status::Ok();
}

void Goddag::UnlinkLeaf(NodeId leaf, HierarchyId h) {
  PoolSpan& siblings = ChildList(LeafParent(leaf, h), h);
  size_t at = IndexOf(child_pool_.View(siblings), leaf);
  if (at != kNpos) child_pool_.Erase(&siblings, at);
}

size_t Goddag::CoalesceLeaves() {
  size_t merges = 0;
  size_t i = 0;
  while (i + 1 < leaves_.size()) {
    NodeId left = leaves_[i];
    NodeId right = leaves_[i + 1];
    bool mergeable = true;
    for (HierarchyId h = 0; h < num_hierarchies_ && mergeable; ++h) {
      NodeId p = LeafParent(left, h);
      if (LeafParent(right, h) != p) {
        mergeable = false;
        break;
      }
      // The leaves must be adjacent siblings: a zero-width element
      // between them is a markup boundary that must survive.
      Span<NodeId> siblings = child_pool_.View(ChildSpan(p, h));
      size_t at = IndexOf(siblings, left);
      if (at == kNpos || at + 1 >= siblings.size() ||
          siblings[at + 1] != right) {
        mergeable = false;
      }
    }
    if (!mergeable) {
      ++i;
      continue;
    }
    chars_.Mutable(left).end = chars_[right].end;
    for (HierarchyId h = 0; h < num_hierarchies_; ++h) UnlinkLeaf(right, h);
    leaves_.Erase(i + 1, i + 2);
    ++merges;
  }
  if (merges > 0) RenumberLeaves();
  return merges;
}

}  // namespace cxml::goddag
