// Structural invariant checker for GODDAGs (Goddag::Validate, invariants
// I1–I5 in goddag.h, plus the chunked storage's bookkeeping). Run after
// construction and mutation in tests and by the editor in paranoid mode.

#include <algorithm>
#include <vector>

#include "common/strings.h"
#include "goddag/goddag.h"

namespace cxml::goddag {

namespace {

Status CheckSubtree(const Goddag& g, HierarchyId h, NodeId node,
                    NodeId expected_parent, std::vector<int>* leaf_seen,
                    size_t* elements) {
  if (g.is_leaf(node)) {
    if (g.leaf_parent(node, h) != expected_parent) {
      return status::Internal(StrFormat(
          "I3: leaf %u parent in hierarchy %u is %u, expected %u", node, h,
          g.leaf_parent(node, h), expected_parent));
    }
    size_t index = g.leaf_index(node);
    if (++(*leaf_seen)[index] > 1) {
      return status::Internal(StrFormat(
          "I3: leaf %u appears twice in hierarchy %u", node, h));
    }
    return Status::Ok();
  }
  if (!g.is_element(node)) {
    return status::Internal(
        StrFormat("I3: root node %u appears as a child", node));
  }
  if (g.hierarchy(node) != h) {
    return status::Internal(StrFormat(
        "I3: element %u of hierarchy %u reached from hierarchy %u", node,
        g.hierarchy(node), h));
  }
  if (g.parent(node) != expected_parent) {
    return status::Internal(StrFormat(
        "I3: element %u parent is %u, expected %u", node, g.parent(node),
        expected_parent));
  }
  ++*elements;
  // I4: children tile the element's extent, in order.
  size_t cursor = g.char_range(node).begin;
  for (NodeId child : g.children(node)) {
    Interval ci = g.char_range(child);
    if (ci.begin != cursor) {
      return status::Internal(StrFormat(
          "I4: child %u of element %u starts at %zu, expected %zu", child,
          node, ci.begin, cursor));
    }
    cursor = ci.end;
    CXML_RETURN_IF_ERROR(
        CheckSubtree(g, h, child, node, leaf_seen, elements));
  }
  if (cursor != g.char_range(node).end) {
    return status::Internal(StrFormat(
        "I4: children of element %u end at %zu, expected %zu", node, cursor,
        g.char_range(node).end));
  }
  // I5: vocabulary membership.
  if (g.cmh() != nullptr &&
      !g.cmh()->hierarchy(h).Covers(g.tag(node))) {
    return status::Internal(
        StrCat("I5: element '", g.tag(node), "' not declared in hierarchy '",
               g.cmh()->hierarchy(h).name, "'"));
  }
  return Status::Ok();
}

/// The chunk table of a node array: full chunks of kChunkSize entries
/// but the last, whose entries in use end the array.
template <typename T>
Status CheckArrayChunks(const char* array, const ChunkedArray<T>& a) {
  const CowChunks<T>& chunks = a.chunks();
  const size_t k = CowChunks<T>::kChunkSize;
  if (chunks.num_chunks() != (a.size() + k - 1) / k) {
    return status::Internal(StrFormat(
        "%s array: %zu chunks for %zu entries", array, chunks.num_chunks(),
        a.size()));
  }
  for (size_t c = 0; c < chunks.num_chunks(); ++c) {
    const size_t used = std::min(k, a.size() - c * k);
    if (chunks.capacity(c) != k || chunks.used(c) != used) {
      return status::Internal(StrFormat(
          "%s array: chunk %zu holds %zu of %zu entries, expected %zu of "
          "%zu",
          array, c, chunks.used(c), chunks.capacity(c), used, k));
    }
  }
  return Status::Ok();
}

/// The lists of one pool: every span lies inside its chunk's entries in
/// use, so no list crosses a chunk boundary; no two overlap (an overrun
/// that stays inside the pool is invisible to ASan); chunk 0 holds
/// nothing; a list longer than a chunk has a chunk of its own; and the
/// entries the lists leave over are the pool's `dead` count.
template <typename T>
Status CheckPool(const char* pool, std::vector<PoolSpan> spans,
                 const Pool<T>& p) {
  const CowChunks<T>& chunks = p.chunks();
  const size_t k = CowChunks<T>::kChunkSize;
  if (chunks.num_chunks() == 0 || chunks.capacity(0) != 0) {
    return status::Internal(
        StrFormat("%s pool: chunk 0 is not the empty chunk", pool));
  }
  size_t entries = 0;
  for (size_t c = 0; c < chunks.num_chunks(); ++c) {
    if (chunks.used(c) > chunks.capacity(c) ||
        (c > 0 && chunks.capacity(c) < k)) {
      return status::Internal(StrFormat(
          "%s pool: chunk %zu uses %zu of %zu entries", pool, c,
          chunks.used(c), chunks.capacity(c)));
    }
    entries += chunks.used(c);
  }
  if (entries != p.size()) {
    return status::Internal(StrFormat(
        "%s pool: %zu entries counted, chunks hold %zu", pool, p.size(),
        entries));
  }
  std::sort(spans.begin(), spans.end(),
            [](const PoolSpan& a, const PoolSpan& b) {
              return a.begin < b.begin;
            });
  size_t owned = 0;
  size_t chunk = 0;
  size_t covered_to = 0;
  for (const PoolSpan& s : spans) {
    if (s.size > s.capacity) {
      return status::Internal(StrFormat(
          "%s pool: list at %u holds %u entries in room for %u", pool,
          s.begin, s.size, s.capacity));
    }
    if (s.capacity == 0) continue;
    const size_t c = s.begin >> CowChunks<T>::kShift;
    const size_t offset = s.begin & CowChunks<T>::kMask;
    if (c == 0 || c >= chunks.num_chunks() ||
        offset + s.capacity > chunks.used(c)) {
      return status::Internal(StrFormat(
          "%s pool: list [%zu:%zu,+%u) runs past its chunk's entries in use",
          pool, c, offset, s.capacity));
    }
    if (s.capacity > k && (offset != 0 || chunks.used(c) != s.capacity)) {
      return status::Internal(StrFormat(
          "%s pool: list of %u entries at %zu:%zu shares its chunk", pool,
          s.capacity, c, offset));
    }
    if (c == chunk && offset < covered_to) {
      return status::Internal(StrFormat(
          "%s pool: list at %zu:%zu overlaps the list before it (ends at "
          "%zu)",
          pool, c, offset, covered_to));
    }
    chunk = c;
    covered_to = offset + s.capacity;
    owned += s.capacity;
  }
  if (p.size() - owned != p.dead()) {
    return status::Internal(StrFormat(
        "%s pool: %zu dead entries counted, %zu found", pool, p.dead(),
        p.size() - owned));
  }
  return Status::Ok();
}

}  // namespace

Status Goddag::Validate() const {
  // I1: the leaf layer partitions [0, |content|).
  size_t cursor = 0;
  for (size_t i = 0; i < leaves_.size(); ++i) {
    NodeId leaf = leaves_[i];
    if (!is_leaf(leaf)) {
      return status::Internal(
          StrFormat("I1: node %u in leaf list is not a leaf", leaf));
    }
    const Interval& iv = chars_[leaf];
    if (iv.begin != cursor) {
      return status::Internal(StrFormat(
          "I1: leaf %zu begins at %zu, expected %zu", i, iv.begin, cursor));
    }
    if (iv.empty()) {
      return status::Internal(StrFormat("I1: leaf %zu is empty", i));
    }
    if (leaf_index_[leaf] != i) {
      return status::Internal(StrFormat(
          "I1: leaf %zu has stale index %u", i, leaf_index_[leaf]));
    }
    cursor = iv.end;
  }
  if (cursor != content_->size()) {
    return status::Internal(StrFormat(
        "I1: leaves cover [0,%zu), content has size %zu", cursor,
        content_->size()));
  }

  // I2 is implied by I4 (contiguous tiling) + I1, but check leaf ranges
  // of every attached element cheaply via LeavesCovering consistency.
  // I3/I4/I5: per-hierarchy tree walks; every leaf must be seen exactly
  // once per hierarchy.
  size_t elements = 0;
  for (HierarchyId h = 0; h < num_hierarchies_; ++h) {
    std::vector<int> leaf_seen(leaves_.size(), 0);
    size_t root_cursor = 0;
    for (NodeId child : root_children(h)) {
      Interval ci = chars_[child];
      if (ci.begin != root_cursor) {
        return status::Internal(StrFormat(
            "I4: root child %u of hierarchy %u starts at %zu, expected %zu",
            child, h, ci.begin, root_cursor));
      }
      root_cursor = ci.end;
      CXML_RETURN_IF_ERROR(
          CheckSubtree(*this, h, child, root_, &leaf_seen, &elements));
    }
    if (root_cursor != content_->size()) {
      return status::Internal(StrFormat(
          "I4: hierarchy %u root children end at %zu, expected %zu", h,
          root_cursor, content_->size()));
    }
    for (size_t i = 0; i < leaf_seen.size(); ++i) {
      if (leaf_seen[i] != 1) {
        return status::Internal(StrFormat(
            "I3: leaf %zu seen %d times in hierarchy %u", i, leaf_seen[i],
            h));
      }
    }
  }

  // Storage: the counters the mutations keep, and the pools' spans.
  if (elements != num_elements_) {
    return status::Internal(StrFormat(
        "%zu attached elements counted, %zu found", num_elements_,
        elements));
  }
  const size_t arena = kind_.size();
  if (tag_.size() != arena || hierarchy_.size() != arena ||
      attrs_.size() != arena || parent_.size() != arena ||
      children_.size() != arena || chars_.size() != arena ||
      leaf_index_.size() != arena ||
      leaf_parents_.size() != arena * num_hierarchies_) {
    return status::Internal(
        StrFormat("node arrays disagree on the arena size %zu", arena));
  }
  CXML_RETURN_IF_ERROR(CheckArrayChunks("kind", kind_));
  CXML_RETURN_IF_ERROR(CheckArrayChunks("tag", tag_));
  CXML_RETURN_IF_ERROR(CheckArrayChunks("hierarchy", hierarchy_));
  CXML_RETURN_IF_ERROR(CheckArrayChunks("attribute list", attrs_));
  CXML_RETURN_IF_ERROR(CheckArrayChunks("parent", parent_));
  CXML_RETURN_IF_ERROR(CheckArrayChunks("child list", children_));
  CXML_RETURN_IF_ERROR(CheckArrayChunks("extent", chars_));
  CXML_RETURN_IF_ERROR(CheckArrayChunks("leaf index", leaf_index_));
  CXML_RETURN_IF_ERROR(CheckArrayChunks("leaf parent", leaf_parents_));
  CXML_RETURN_IF_ERROR(CheckArrayChunks("leaf", leaves_));
  std::vector<PoolSpan> lists(root_children_);
  lists.insert(lists.end(), children_.begin(), children_.end());
  CXML_RETURN_IF_ERROR(CheckPool("child", std::move(lists), child_pool_));
  return CheckPool("attribute",
                   std::vector<PoolSpan>(attrs_.begin(), attrs_.end()),
                   attr_pool_);
}

}  // namespace cxml::goddag
