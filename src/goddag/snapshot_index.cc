#include "goddag/snapshot_index.h"

#include <algorithm>
#include <set>
#include <utility>

namespace cxml::goddag {

namespace {

/// Whether `n` is part of the document right now. Detachment leaves a
/// node's tag/hierarchy/extent intact in the arena, so these public
/// probes are the only signals: an element is attached iff it has a
/// parent (RemoveElement resets it), a leaf iff the leaf table still
/// points back at it (splits and deletes renumber the table).
bool Attached(const Goddag& g, NodeId n) {
  if (g.is_root(n)) return true;
  if (g.is_element(n)) return g.parent(n) != kInvalidNode;
  if (g.is_leaf(n)) {
    size_t i = g.leaf_index(n);
    return i < g.num_leaves() && g.leaf_at(i) == n;
  }
  return false;
}

}  // namespace

void SnapshotIndex::AdoptRanks(const Goddag& g, std::vector<NodeId> order,
                               std::vector<size_t> begins,
                               std::vector<size_t> ends) {
  order_ = std::move(order);
  order_begins_ = std::move(begins);
  order_ends_ = std::move(ends);
  rank_.assign(g.arena_size(), kUnranked);
  for (size_t i = 0; i < order_.size(); ++i) {
    rank_[order_[i]] = static_cast<uint32_t>(i);
  }
  num_ranked_ = order_.size();
}

SnapshotIndex::SnapshotIndex(const Goddag& g) {
  g_ = &g;
  // ---- global document order: root + attached elements + leaves ----
  std::vector<NodeId> order;
  std::vector<NodeId> elements = g.AllElements();
  order.reserve(1 + elements.size() + g.num_leaves());
  order.push_back(g.root());
  order.insert(order.end(), elements.begin(), elements.end());
  order.insert(order.end(), g.leaves().begin(), g.leaves().end());
  std::sort(order.begin(), order.end(),
            [&g](NodeId a, NodeId b) { return g.Before(a, b); });
  std::vector<size_t> begins(order.size());
  std::vector<size_t> ends(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    Interval iv = g.char_range(order[i]);
    begins[i] = iv.begin;
    ends[i] = iv.end;
  }
  AdoptRanks(g, std::move(order), std::move(begins), std::move(ends));

  // ---- (hierarchy, tag) pools, filled in document order ----
  auto freeze = [&g](Pool pool) {
    FinishPool(g, &pool);
    return std::make_shared<const Pool>(std::move(pool));
  };
  const size_t num_layers = g.num_hierarchies() + 1;
  std::vector<Pool> any_build(num_layers);
  std::vector<std::map<std::string, Pool, std::less<>>> tag_build(
      num_layers);
  Pool leaves_build;
  for (NodeId n : order_) {
    if (g.is_element(n)) {
      const std::string& tag = g.tag(n);
      HierarchyId h = g.hierarchy(n);
      any_build[0].nodes.push_back(n);
      tag_build[0][tag].nodes.push_back(n);
      if (h != kInvalidHierarchy) {
        any_build[h + 1].nodes.push_back(n);
        tag_build[h + 1][tag].nodes.push_back(n);
      }
    } else if (g.is_leaf(n)) {
      leaves_build.nodes.push_back(n);
    }
  }
  layers_.resize(num_layers);
  for (size_t layer = 0; layer < num_layers; ++layer) {
    layers_[layer].any = freeze(std::move(any_build[layer]));
    for (auto& [tag, pool] : tag_build[layer]) {
      layers_[layer].by_tag.emplace(tag, freeze(std::move(pool)));
    }
  }
  leaves_ = freeze(std::move(leaves_build));
}

std::shared_ptr<const SnapshotIndex> SnapshotIndex::Patch(
    const SnapshotIndex& prev, const Goddag& g, const IndexDelta& delta,
    PatchStats* stats) {
  if (delta.wide) return nullptr;
  const size_t prev_arena = prev.rank_.size();
  const size_t arena = g.arena_size();
  const size_t num_layers = prev.layers_.size();
  if (arena < prev_arena) return nullptr;
  if (g.num_hierarchies() + 1 != num_layers) return nullptr;

  // ---- authoritative touched set from the arena diff. NodeIds survive
  // Goddag::Clone verbatim, so position-for-position comparison against
  // the extents recorded at prev's build is exact: a node is touched
  // when its attachment or extent changed, or it is new arena growth.
  // Past the width cap a full rebuild is cheaper than the per-pool
  // bookkeeping — bail. ----
  const size_t width_cap = std::max<size_t>(64, prev.num_ranked_ / 8);
  std::vector<NodeId> added;         // attached now, not carried over
  std::vector<NodeId> dirty_nodes;   // everything touched (key derivation)
  std::vector<char> carried(prev_arena, 1);
  size_t touched = 0;
  size_t dropped = 0;  // prev-ranked nodes not carried over
  auto touch = [&](NodeId n) {
    dirty_nodes.push_back(n);
    return ++touched <= width_cap;
  };
  // The arena walk reads the node arrays chunk by chunk.
  constexpr size_t kChunk = ChunkedArray<NodeKind>::kChunkSize;
  const NodeKind* kinds = nullptr;
  const NodeId* parents = nullptr;
  const uint32_t* leaf_indexes = nullptr;
  const Interval* extents = nullptr;
  const size_t num_leaves = g.num_leaves();
  for (size_t i = 0; i < prev_arena; ++i) {
    const size_t k = i & (kChunk - 1);
    if (k == 0) {
      const size_t c = i / kChunk;
      kinds = g.kind_.chunks().data(c);
      parents = g.parent_.chunks().data(c);
      leaf_indexes = g.leaf_index_.chunks().data(c);
      extents = g.chars_.chunks().data(c);
    }
    NodeId n = static_cast<NodeId>(i);
    const bool was = prev.rank_[n] != kUnranked;
    bool now = true;  // the root
    if (kinds[k] == NodeKind::kElement) {
      now = parents[k] != kInvalidNode;
    } else if (kinds[k] == NodeKind::kLeaf) {
      now = leaf_indexes[k] < num_leaves && g.leaf_at(leaf_indexes[k]) == n;
    }
    if (!was) {
      // No supported edit path re-attaches a detached node (undo of a
      // remove allocates a fresh id); seeing one means the clone
      // provenance assumption broke — rebuild.
      if (now) return nullptr;
      continue;
    }
    if (!now) {
      carried[n] = 0;
      ++dropped;
      if (!touch(n)) return nullptr;
      continue;
    }
    const uint32_t r = prev.rank_[n];
    const Interval& iv = extents[k];
    if (iv.begin == prev.order_begins_[r] &&
        iv.end == prev.order_ends_[r]) {
      continue;  // untouched: rides the shared spine
    }
    carried[n] = 0;  // extent shifted (boundary leaf split): remove+re-add
    ++dropped;
    added.push_back(n);
    if (!touch(n)) return nullptr;
  }
  for (size_t i = prev_arena; i < arena; ++i) {
    NodeId n = static_cast<NodeId>(i);
    if (!Attached(g, n)) continue;
    added.push_back(n);
    if (!touch(n)) return nullptr;
  }

  // ---- dirty (hierarchy, tag) keys. Tags and hierarchies persist in
  // the arena after detachment, so even removed nodes name the pools
  // they left. ----
  std::vector<char> any_dirty(num_layers, 0);
  std::vector<std::set<std::string, std::less<>>> tag_dirty(num_layers);
  bool leaves_dirty = false;
  for (NodeId n : dirty_nodes) {
    if (g.is_element(n)) {
      const std::string& tag = g.tag(n);
      HierarchyId h = g.hierarchy(n);
      any_dirty[0] = 1;
      tag_dirty[0].insert(tag);
      if (h != kInvalidHierarchy && static_cast<size_t>(h) + 1 < num_layers) {
        any_dirty[h + 1] = 1;
        tag_dirty[h + 1].insert(tag);
      }
    } else if (g.is_leaf(n)) {
      leaves_dirty = true;
    }
  }

  // ---- the touched character window: every dropped node's previous
  // extent and every added node's current extent lies inside
  // [win_lo_char, win_hi_char], so any array sorted by extent (the
  // global order, every pool) changes only among the entries that begin
  // there — everything before and after is carried verbatim and
  // bulk-copied. ----
  std::sort(added.begin(), added.end(),
            [&g](NodeId a, NodeId b) { return g.Before(a, b); });
  size_t win_lo_char = static_cast<size_t>(-1);
  size_t win_hi_char = 0;
  auto widen = [&](size_t begin, size_t end) {
    win_lo_char = std::min(win_lo_char, begin);
    win_hi_char = std::max(win_hi_char, end);
  };
  for (NodeId n : dirty_nodes) {
    if (static_cast<size_t>(n) < prev_arena) {
      const uint32_t r = prev.rank_[n];
      widen(prev.order_begins_[r], prev.order_ends_[r]);
    }
  }
  for (NodeId n : added) widen(g.char_range(n).begin, g.char_range(n).end);
  if (win_lo_char > win_hi_char) win_lo_char = win_hi_char = 0;

  // ---- the new document order: bulk-copy the carried prefix and
  // suffix straight from prev's arrays (extents included — carried
  // extents are unchanged by definition), and merge only the window.
  // The untouched spine stays relatively sorted (Before reads begin/
  // end/kind/hierarchy/id, all immutable for untouched nodes), so the
  // window merge restores the total order without the constructor's
  // full O(n log n) comparator sort. ----
  const size_t pon = prev.order_.size();
  const size_t an = added.size();
  std::vector<size_t> added_begins(an);
  std::vector<size_t> added_ends(an);
  for (size_t j = 0; j < an; ++j) {
    Interval iv = g.char_range(added[j]);
    added_begins[j] = iv.begin;
    added_ends[j] = iv.end;
  }
  const size_t wlo = static_cast<size_t>(
      std::lower_bound(prev.order_begins_.begin(),
                       prev.order_begins_.end(), win_lo_char) -
      prev.order_begins_.begin());
  const size_t whi = static_cast<size_t>(
      std::upper_bound(prev.order_begins_.begin(),
                       prev.order_begins_.end(), win_hi_char) -
      prev.order_begins_.begin());
  const size_t new_n = pon - dropped + an;
  std::vector<NodeId> order(new_n);
  std::vector<size_t> order_begins(new_n);
  std::vector<size_t> order_ends(new_n);
  std::copy(prev.order_.begin(), prev.order_.begin() + wlo, order.begin());
  std::copy(prev.order_begins_.begin(), prev.order_begins_.begin() + wlo,
            order_begins.begin());
  std::copy(prev.order_ends_.begin(), prev.order_ends_.begin() + wlo,
            order_ends.begin());
  size_t out = wlo;
  {
    size_t j = 0;
    auto add_first = [&](size_t i) {
      // Does added[j] precede prev.order_[i] in document order?
      if (added_begins[j] != prev.order_begins_[i]) {
        return added_begins[j] < prev.order_begins_[i];
      }
      if (added_ends[j] != prev.order_ends_[i]) {
        return added_ends[j] > prev.order_ends_[i];
      }
      return g.Before(added[j], prev.order_[i]);
    };
    for (size_t i = wlo; i < whi; ++i) {
      if (carried[prev.order_[i]] == 0) continue;
      while (j < an && add_first(i)) {
        order[out] = added[j];
        order_begins[out] = added_begins[j];
        order_ends[out] = added_ends[j];
        ++out;
        ++j;
      }
      order[out] = prev.order_[i];
      order_begins[out] = prev.order_begins_[i];
      order_ends[out] = prev.order_ends_[i];
      ++out;
    }
    while (j < an) {
      order[out] = added[j];
      order_begins[out] = added_begins[j];
      order_ends[out] = added_ends[j];
      ++out;
      ++j;
    }
  }
  if (out + (pon - whi) != new_n) return nullptr;  // diff bookkeeping broke
  std::copy(prev.order_.begin() + whi, prev.order_.end(),
            order.begin() + out);
  std::copy(prev.order_begins_.begin() + whi, prev.order_begins_.end(),
            order_begins.begin() + out);
  std::copy(prev.order_ends_.begin() + whi, prev.order_ends_.end(),
            order_ends.begin() + out);

  auto idx = std::shared_ptr<SnapshotIndex>(new SnapshotIndex());
  idx->g_ = &g;
  idx->AdoptRanks(g, std::move(order), std::move(order_begins),
                  std::move(order_ends));
  // O(n) insurance on the construction above, over the adopted extent
  // arrays (document order is begin asc, end desc, with Goddag::Before
  // breaking exact extent ties): a violated merge falls back to the
  // oracle instead of ever serving a mis-ordered index.
  for (size_t i = 1; i < idx->order_.size(); ++i) {
    if (idx->order_begins_[i] < idx->order_begins_[i - 1]) return nullptr;
    if (idx->order_begins_[i] == idx->order_begins_[i - 1]) {
      if (idx->order_ends_[i] > idx->order_ends_[i - 1]) return nullptr;
      if (idx->order_ends_[i] == idx->order_ends_[i - 1] &&
          g.Before(idx->order_[i], idx->order_[i - 1])) {
        return nullptr;
      }
    }
  }

  // ---- pools: splice every dirty key from its predecessor pool and
  // alias every untouched one (extent arrays, prefix-max-end and
  // end-sorted companions ride along — they are part of the Pool).
  // Carried entries keep their recorded extents and their relative
  // order, so a splice is two comparator-free linear merges — drop the
  // entries the diff removed, interleave the additions — with no arena
  // reads: nodes/begins/ends merge by new rank, by_end/end_keys by
  // (end, new rank), which is exactly the order FinishPool's stable
  // sort over a document-ordered input produces. ----
  PatchStats local;
  PatchStats* st = stats != nullptr ? stats : &local;
  st->touched_nodes = touched;
  const std::vector<uint32_t>& new_rank = idx->rank_;
  auto splice = [&](const Pool* was, const std::vector<NodeId>& add) {
    const size_t pn = was != nullptr ? was->nodes.size() : 0;
    const size_t kn = add.size();
    std::vector<size_t> ab(kn);
    std::vector<size_t> ae(kn);
    for (size_t j = 0; j < kn; ++j) {
      Interval iv = g.char_range(add[j]);
      ab[j] = iv.begin;
      ae[j] = iv.end;
    }
    Pool pool;
    pool.nodes.reserve(pn + kn);
    pool.begins.reserve(pn + kn);
    pool.ends.reserve(pn + kn);
    // Dropped entries' previous extents and added entries' current
    // extents all lie in the touched spans, so only the index window
    // with begin in [win_lo_char, win_hi_char] needs the per-entry
    // merge — the rest is the same window argument as the global order.
    size_t plo = 0;
    size_t phi = 0;
    if (was != nullptr) {
      plo = static_cast<size_t>(
          std::lower_bound(was->begins.begin(), was->begins.end(),
                           win_lo_char) -
          was->begins.begin());
      phi = static_cast<size_t>(
          std::upper_bound(was->begins.begin(), was->begins.end(),
                           win_hi_char) -
          was->begins.begin());
      pool.nodes.insert(pool.nodes.end(), was->nodes.begin(),
                        was->nodes.begin() + plo);
      pool.begins.insert(pool.begins.end(), was->begins.begin(),
                         was->begins.begin() + plo);
      pool.ends.insert(pool.ends.end(), was->ends.begin(),
                       was->ends.begin() + plo);
    }
    for (size_t i = plo, j = 0; i < phi || j < kn;) {
      if (i < phi && carried[was->nodes[i]] == 0) {
        ++i;
        continue;
      }
      if (i < phi &&
          (j >= kn || new_rank[was->nodes[i]] < new_rank[add[j]])) {
        pool.nodes.push_back(was->nodes[i]);
        pool.begins.push_back(was->begins[i]);
        pool.ends.push_back(was->ends[i]);
        ++i;
      } else {
        pool.nodes.push_back(add[j]);
        pool.begins.push_back(ab[j]);
        pool.ends.push_back(ae[j]);
        ++j;
      }
    }
    const size_t mid = pool.nodes.size();
    if (was != nullptr) {
      pool.nodes.insert(pool.nodes.end(), was->nodes.begin() + phi,
                        was->nodes.end());
      pool.begins.insert(pool.begins.end(), was->begins.begin() + phi,
                         was->begins.end());
      pool.ends.insert(pool.ends.end(), was->ends.begin() + phi,
                       was->ends.end());
    }
    const size_t m = pool.nodes.size();
    pool.max_end.resize(m);
    if (was != nullptr && plo > 0) {
      std::copy(was->max_end.begin(), was->max_end.begin() + plo,
                pool.max_end.begin());
    }
    size_t running = plo > 0 ? was->max_end[plo - 1] : 0;
    for (size_t i = plo; i < mid; ++i) {
      running = std::max(running, pool.ends[i]);
      pool.max_end[i] = running;
    }
    if (mid < m && phi > 0 && running == was->max_end[phi - 1]) {
      // The window left the running maximum unchanged: the suffix
      // prefix-max values are the predecessor's verbatim.
      std::copy(was->max_end.begin() + phi, was->max_end.end(),
                pool.max_end.begin() + mid);
    } else {
      for (size_t i = mid; i < m; ++i) {
        running = std::max(running, pool.ends[i]);
        pool.max_end[i] = running;
      }
    }
    // The end-sorted companion: additions in (end, rank) order; the
    // carried subsequence of was->by_end already is, and its affected
    // entries sit in the window with end key in the same char bounds.
    std::vector<size_t> aj(kn);
    for (size_t j = 0; j < kn; ++j) aj[j] = j;
    std::sort(aj.begin(), aj.end(), [&](size_t x, size_t y) {
      if (ae[x] != ae[y]) return ae[x] < ae[y];
      return new_rank[add[x]] < new_rank[add[y]];
    });
    pool.by_end.reserve(m);
    pool.end_keys.reserve(m);
    size_t elo = 0;
    size_t ehi = 0;
    if (was != nullptr) {
      elo = static_cast<size_t>(
          std::lower_bound(was->end_keys.begin(), was->end_keys.end(),
                           win_lo_char) -
          was->end_keys.begin());
      ehi = static_cast<size_t>(
          std::upper_bound(was->end_keys.begin(), was->end_keys.end(),
                           win_hi_char) -
          was->end_keys.begin());
      pool.by_end.insert(pool.by_end.end(), was->by_end.begin(),
                         was->by_end.begin() + elo);
      pool.end_keys.insert(pool.end_keys.end(), was->end_keys.begin(),
                           was->end_keys.begin() + elo);
    }
    for (size_t i = elo, j = 0; i < ehi || j < kn;) {
      if (i < ehi && carried[was->by_end[i]] == 0) {
        ++i;
        continue;
      }
      bool take_prev = i < ehi;
      if (take_prev && j < kn) {
        const size_t pe = was->end_keys[i];
        const size_t je = ae[aj[j]];
        take_prev = pe != je
                        ? pe < je
                        : new_rank[was->by_end[i]] < new_rank[add[aj[j]]];
      }
      if (take_prev) {
        pool.by_end.push_back(was->by_end[i]);
        pool.end_keys.push_back(was->end_keys[i]);
        ++i;
      } else {
        pool.by_end.push_back(add[aj[j]]);
        pool.end_keys.push_back(ae[aj[j]]);
        ++j;
      }
    }
    if (was != nullptr) {
      pool.by_end.insert(pool.by_end.end(), was->by_end.begin() + ehi,
                         was->by_end.end());
      pool.end_keys.insert(pool.end_keys.end(),
                           was->end_keys.begin() + ehi,
                           was->end_keys.end());
    }
    return std::make_shared<const Pool>(std::move(pool));
  };

  // Per-key addition lists (added is already document-order sorted, so
  // each filtered list is too).
  std::vector<std::vector<NodeId>> any_add(num_layers);
  std::vector<std::map<std::string, std::vector<NodeId>, std::less<>>>
      tag_add(num_layers);
  std::vector<NodeId> leaves_add;
  for (NodeId n : added) {
    if (g.is_element(n)) {
      const std::string& tag = g.tag(n);
      HierarchyId h = g.hierarchy(n);
      any_add[0].push_back(n);
      tag_add[0][tag].push_back(n);
      if (h != kInvalidHierarchy) {
        any_add[h + 1].push_back(n);
        tag_add[h + 1][tag].push_back(n);
      }
    } else if (g.is_leaf(n)) {
      leaves_add.push_back(n);
    }
  }
  const std::vector<NodeId> no_adds;
  idx->layers_.resize(num_layers);
  for (size_t layer = 0; layer < num_layers; ++layer) {
    TagPools& out = idx->layers_[layer];
    const TagPools& was = prev.layers_[layer];
    if (any_dirty[layer]) {
      out.any = splice(was.any.get(), any_add[layer]);
      ++st->pools_rebuilt;
    } else {
      out.any = was.any;
      ++st->pools_shared;
    }
    for (const auto& [tag, pool] : was.by_tag) {
      if (tag_dirty[layer].count(tag) != 0) continue;  // respliced below
      out.by_tag.emplace(tag, pool);
      ++st->pools_shared;
    }
    for (const std::string& tag : tag_dirty[layer]) {
      auto wit = was.by_tag.find(tag);
      const Pool* wp = wit != was.by_tag.end() ? wit->second.get() : nullptr;
      auto ait = tag_add[layer].find(tag);
      const std::vector<NodeId>& add =
          ait != tag_add[layer].end() ? ait->second : no_adds;
      PoolPtr rebuilt = splice(wp, add);
      // A dirtied tag whose last member left simply vanishes from the
      // map, exactly as a fresh build would leave it out.
      if (rebuilt->nodes.empty()) continue;
      out.by_tag[tag] = std::move(rebuilt);
      ++st->pools_rebuilt;
    }
  }
  if (leaves_dirty) {
    idx->leaves_ = splice(prev.leaves_.get(), leaves_add);
    ++st->pools_rebuilt;
  } else {
    idx->leaves_ = prev.leaves_;
    ++st->pools_shared;
  }
  return idx;
}

void SnapshotIndex::FinishPool(const Goddag& g, Pool* pool) {
  const size_t n = pool->nodes.size();
  pool->begins.resize(n);
  pool->ends.resize(n);
  pool->max_end.resize(n);
  size_t running = 0;
  for (size_t i = 0; i < n; ++i) {
    Interval iv = g.char_range(pool->nodes[i]);
    pool->begins[i] = iv.begin;
    pool->ends[i] = iv.end;
    running = std::max(running, iv.end);
    pool->max_end[i] = running;
  }
  pool->by_end = pool->nodes;
  std::stable_sort(pool->by_end.begin(), pool->by_end.end(),
                   [&g](NodeId a, NodeId b) {
                     return g.char_range(a).end < g.char_range(b).end;
                   });
  pool->end_keys.resize(n);
  for (size_t i = 0; i < n; ++i) {
    pool->end_keys[i] = g.char_range(pool->by_end[i]).end;
  }
}

SnapshotIndex::Pool SnapshotIndex::Subset(const Pool& pool,
                                          const std::vector<char>& keep) {
  Pool sub;
  size_t running = 0;
  for (size_t i = 0; i < pool.nodes.size(); ++i) {
    if (!keep[i]) continue;
    sub.nodes.push_back(pool.nodes[i]);
    sub.begins.push_back(pool.begins[i]);
    sub.ends.push_back(pool.ends[i]);
    running = std::max(running, pool.ends[i]);
    sub.max_end.push_back(running);
  }
  // The same stable end order FinishPool gives a pool built from these
  // nodes.
  std::vector<size_t> by_end(sub.nodes.size());
  for (size_t i = 0; i < by_end.size(); ++i) by_end[i] = i;
  std::stable_sort(by_end.begin(), by_end.end(), [&sub](size_t a, size_t b) {
    return sub.ends[a] < sub.ends[b];
  });
  for (size_t i : by_end) {
    sub.by_end.push_back(sub.nodes[i]);
    sub.end_keys.push_back(sub.ends[i]);
  }
  return sub;
}

const SnapshotIndex::Pool& SnapshotIndex::Elements(
    HierarchyId hq, std::string_view tag) const {
  static const Pool kEmpty;
  size_t layer = (hq == kInvalidHierarchy) ? 0 : static_cast<size_t>(hq) + 1;
  if (layer >= layers_.size()) return kEmpty;
  const TagPools& pools = layers_[layer];
  if (tag.empty()) return pools.any != nullptr ? *pools.any : kEmpty;
  auto it = pools.by_tag.find(tag);
  return it == pools.by_tag.end() ? kEmpty : *it->second;
}

const SnapshotIndex::Pool& SnapshotIndex::Leaves() const {
  static const Pool kEmpty;
  return leaves_ != nullptr ? *leaves_ : kEmpty;
}

bool SnapshotIndex::Dominates(NodeId outer, NodeId inner) const {
  if (outer == inner) return false;
  Interval o = g_->char_range(outer);
  Interval i = g_->char_range(inner);
  if (!o.Contains(i)) return false;
  if (o == i) return EqDominates(outer, inner);
  return true;
}

bool SnapshotIndex::EqDominates(NodeId outer, NodeId inner) const {
  // Children tile their parent's extent, so extents only grow up a
  // parent chain: an ancestor with inner's extent is reached through
  // parents that all have that extent, and the walk stops at the first
  // wider one (or at the root, which has no parent).
  const Interval span = g_->char_range(inner);
  auto reaches = [&](NodeId p) {
    for (; p != kInvalidNode && g_->char_range(p) == span;
         p = g_->is_element(p) ? g_->parent(p) : kInvalidNode) {
      if (p == outer) return true;
    }
    return false;
  };
  if (g_->is_element(inner)) return reaches(g_->parent(inner));
  if (!g_->is_leaf(inner)) return false;
  for (HierarchyId h = 0; h < g_->num_hierarchies(); ++h) {
    if (reaches(g_->leaf_parent(inner, h))) return true;
  }
  return false;
}

namespace {

/// Shared window bounds for the containment collectors: candidates
/// have begin in [span.begin, span.end] (a zero-width node sitting
/// exactly on either boundary is contained).
std::pair<size_t, size_t> ContainmentWindow(
    const SnapshotIndex::Pool& pool, const Interval& span) {
  size_t lo = static_cast<size_t>(
      std::lower_bound(pool.begins.begin(), pool.begins.end(), span.begin) -
      pool.begins.begin());
  size_t hi = static_cast<size_t>(
      std::upper_bound(pool.begins.begin(), pool.begins.end(), span.end) -
      pool.begins.begin());
  return {lo, hi};
}

}  // namespace

void SnapshotIndex::Dominated(const Pool& pool, NodeId ctx,
                              std::vector<NodeId>* out) const {
  Interval span = g_->char_range(ctx);
  auto [lo, hi] = ContainmentWindow(pool, span);
  for (size_t i = lo; i < hi; ++i) {
    if (pool.ends[i] > span.end) continue;
    NodeId n = pool.nodes[i];
    if (n == ctx) continue;
    if (pool.begins[i] == span.begin && pool.ends[i] == span.end) {
      if (EqDominates(ctx, n)) out->push_back(n);
    } else {
      out->push_back(n);
    }
  }
}

void SnapshotIndex::ChildrenOfDominated(const Pool& pool, NodeId ctx,
                                        std::vector<NodeId>* out) const {
  // A child of ctx or of a node ctx dominates lies inside ctx's extent,
  // so the containment window holds every candidate; the parent test
  // then decides. `n == ctx` fails it on its own: ctx's parent is
  // neither ctx nor dominated by it.
  Interval span = g_->char_range(ctx);
  auto [lo, hi] = ContainmentWindow(pool, span);
  for (size_t i = lo; i < hi; ++i) {
    if (pool.ends[i] > span.end) continue;
    NodeId n = pool.nodes[i];
    NodeId parent = g_->parent(n);
    if (parent == ctx || Dominates(ctx, parent)) out->push_back(n);
  }
}

void SnapshotIndex::Contained(const Pool& pool, NodeId ctx,
                              std::vector<NodeId>* out) const {
  Interval span = g_->char_range(ctx);
  auto [lo, hi] = ContainmentWindow(pool, span);
  for (size_t i = lo; i < hi; ++i) {
    if (pool.ends[i] > span.end) continue;
    if (pool.nodes[i] == ctx) continue;
    out->push_back(pool.nodes[i]);
  }
}

void SnapshotIndex::Dominating(const Pool& pool, NodeId ctx,
                               std::vector<NodeId>* out) const {
  Interval span = g_->char_range(ctx);
  // Containers have begin <= span.begin; scan left from the upper
  // bound until the prefix max end shows nothing can still cover us.
  size_t hi = static_cast<size_t>(
      std::upper_bound(pool.begins.begin(), pool.begins.end(), span.begin) -
      pool.begins.begin());
  size_t mark = out->size();
  for (size_t i = hi; i-- > 0;) {
    if (pool.max_end[i] < span.end) break;
    if (pool.ends[i] < span.end) continue;
    NodeId n = pool.nodes[i];
    if (n == ctx) continue;
    if (pool.begins[i] == span.begin && pool.ends[i] == span.end) {
      if (EqDominates(n, ctx)) out->push_back(n);
    } else {
      out->push_back(n);
    }
  }
  std::reverse(out->begin() + static_cast<ptrdiff_t>(mark), out->end());
}

NodeId SnapshotIndex::ScanContainment(const Pool& pool, NodeId ctx,
                                      bool from_back,
                                      bool dominated) const {
  Interval span = g_->char_range(ctx);
  auto [lo, hi] = ContainmentWindow(pool, span);
  for (size_t k = 0, n = hi - lo; k < n; ++k) {
    size_t i = from_back ? hi - 1 - k : lo + k;
    if (pool.ends[i] > span.end) continue;
    NodeId node = pool.nodes[i];
    if (node == ctx) continue;
    if (dominated && pool.begins[i] == span.begin &&
        pool.ends[i] == span.end && !EqDominates(ctx, node)) {
      continue;
    }
    return node;
  }
  return kInvalidNode;
}

NodeId SnapshotIndex::DominatedFirst(const Pool& pool, NodeId ctx) const {
  return ScanContainment(pool, ctx, /*from_back=*/false,
                         /*dominated=*/true);
}

NodeId SnapshotIndex::DominatedLast(const Pool& pool, NodeId ctx) const {
  return ScanContainment(pool, ctx, /*from_back=*/true,
                         /*dominated=*/true);
}

NodeId SnapshotIndex::ContainedFirst(const Pool& pool, NodeId ctx) const {
  return ScanContainment(pool, ctx, /*from_back=*/false,
                         /*dominated=*/false);
}

NodeId SnapshotIndex::ContainedLast(const Pool& pool, NodeId ctx) const {
  return ScanContainment(pool, ctx, /*from_back=*/true,
                         /*dominated=*/false);
}

void SnapshotIndex::FollowingOf(const Pool& pool, NodeId ctx,
                                std::vector<NodeId>* out) const {
  Interval span = g_->char_range(ctx);
  size_t lo = static_cast<size_t>(
      std::lower_bound(pool.begins.begin(), pool.begins.end(), span.end) -
      pool.begins.begin());
  for (size_t i = lo; i < pool.nodes.size(); ++i) {
    // An equal-extent candidate here implies a zero-width context and
    // a zero-width twin at the same position: not "following".
    if (pool.begins[i] == span.begin && pool.ends[i] == span.end) continue;
    if (pool.nodes[i] == ctx) continue;
    out->push_back(pool.nodes[i]);
  }
}

void SnapshotIndex::PrecedingOf(const Pool& pool, NodeId ctx,
                                std::vector<NodeId>* out) const {
  Interval span = g_->char_range(ctx);
  size_t hi = static_cast<size_t>(
      std::upper_bound(pool.end_keys.begin(), pool.end_keys.end(),
                       span.begin) -
      pool.end_keys.begin());
  for (size_t i = 0; i < hi; ++i) {
    NodeId n = pool.by_end[i];
    if (n == ctx) continue;
    // Equal-extent twins (zero-width only, see FollowingOf) excluded.
    if (pool.end_keys[i] == span.end && g_->char_range(n).begin == span.begin) {
      continue;
    }
    out->push_back(n);
  }
}

void SnapshotIndex::OverlappingOf(const Pool& pool, const Interval& span,
                                  NodeId ctx,
                                  std::vector<NodeId>* out) const {
  if (pool.empty() || span.empty()) return;
  // Entries with begin >= span.end cannot overlap; scan left from that
  // bound, stopping once the prefix max end falls at or before
  // span.begin.
  size_t hi = static_cast<size_t>(
      std::lower_bound(pool.begins.begin(), pool.begins.end(), span.end) -
      pool.begins.begin());
  size_t mark = out->size();
  for (size_t i = hi; i-- > 0;) {
    if (pool.max_end[i] <= span.begin) break;
    if (pool.nodes[i] == ctx) continue;
    Interval o(pool.begins[i], pool.ends[i]);
    if (o.Overlaps(span)) out->push_back(pool.nodes[i]);
  }
  std::reverse(out->begin() + static_cast<ptrdiff_t>(mark), out->end());
}

void SnapshotIndex::SortDocumentOrder(std::vector<NodeId>* nodes) const {
  std::sort(nodes->begin(), nodes->end(), [this](NodeId a, NodeId b) {
    uint32_t ra = rank_[a];
    uint32_t rb = rank_[b];
    if (ra != rb) return ra < rb;
    // Detached nodes share kUnranked: fall back to the structural
    // comparison so the order stays total and deterministic.
    return ra == kUnranked && g_->Before(a, b);
  });
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
}

}  // namespace cxml::goddag
