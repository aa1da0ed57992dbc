// Structural invariant checker for GODDAGs (Goddag::Validate, invariants
// I1–I5 in goddag.h, plus the flat storage's bookkeeping). Run after
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

/// The lists of one pool: every span lies inside the pool's `pool_size`
/// entries, no two overlap (an overrun that stays inside the pool is
/// invisible to ASan), and the entries they leave over are the pool's
/// `dead` count.
Status CheckPool(const char* pool, std::vector<PoolSpan> spans,
                 size_t pool_size, size_t dead) {
  std::sort(spans.begin(), spans.end(),
            [](const PoolSpan& a, const PoolSpan& b) {
              return a.begin < b.begin;
            });
  size_t owned = 0;
  size_t covered_to = 0;
  for (const PoolSpan& s : spans) {
    if (s.size > s.capacity) {
      return status::Internal(StrFormat(
          "%s pool: list at %u holds %u entries in room for %u", pool,
          s.begin, s.size, s.capacity));
    }
    if (s.capacity == 0) continue;
    if (size_t{s.begin} + s.capacity > pool_size) {
      return status::Internal(StrFormat(
          "%s pool: list [%u,+%u) runs past the pool's %zu entries", pool,
          s.begin, s.capacity, pool_size));
    }
    if (s.begin < covered_to) {
      return status::Internal(StrFormat(
          "%s pool: list at %u overlaps the list before it (ends at %zu)",
          pool, s.begin, covered_to));
    }
    covered_to = size_t{s.begin} + s.capacity;
    owned += s.capacity;
  }
  if (pool_size - owned != dead) {
    return status::Internal(StrFormat(
        "%s pool: %zu dead entries counted, %zu found", pool, dead,
        pool_size - owned));
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
          "I1: leaf %zu has stale index %zu", i, leaf_index_[leaf]));
    }
    cursor = iv.end;
  }
  if (cursor != content_.size()) {
    return status::Internal(StrFormat(
        "I1: leaves cover [0,%zu), content has size %zu", cursor,
        content_.size()));
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
    if (root_cursor != content_.size()) {
      return status::Internal(StrFormat(
          "I4: hierarchy %u root children end at %zu, expected %zu", h,
          root_cursor, content_.size()));
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
  std::vector<PoolSpan> lists(root_children_);
  lists.insert(lists.end(), children_.begin(), children_.end());
  CXML_RETURN_IF_ERROR(
      CheckPool("child", std::move(lists), child_pool_.size(),
                child_pool_.dead()));
  return CheckPool("attribute", attrs_, attr_pool_.size(),
                   attr_pool_.dead());
}

}  // namespace cxml::goddag
