#ifndef CXML_GODDAG_SNAPSHOT_INDEX_H_
#define CXML_GODDAG_SNAPSHOT_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "goddag/goddag.h"
#include "goddag/index_delta.h"

namespace cxml::goddag {

/// Immutable acceleration structure over one GODDAG, built once per
/// snapshot and shared by every reader pinned to it (it never mutates
/// after construction, so concurrent lookups need no locks).
///
/// It answers the Extended XPath axis primitives in O(log n + window)
/// instead of the evaluator's naive O(n) full scans per context node.
/// The window is exactly the matches for following/preceding and for
/// tag-restricted containment steps; for ancestor/overlapping the
/// prefix-max-end cutoff bounds it by the entries left of the context
/// whose prefix still reaches the query — a document-spanning element
/// keeps that prefix alive, degrading those two collectors toward
/// O(pool), which is still never worse than the naive scan (see the
/// ROADMAP open item on a long-interval tier):
///
///  * **Pools** — the attached elements are bucketed by
///    (hierarchy, tag), with an "any hierarchy" and an "any tag" view of
///    each, plus one pool for the leaf layer. A pool keeps its nodes in
///    document order together with parallel begin/end extent arrays, a
///    prefix-maximum of extent ends (the classic interval-containment
///    cutoff) and a second ordering sorted by extent end. A step's name
///    test and hierarchy qualifier select a pool *before* the axis runs,
///    so `descendant(h)::tag` binary-searches the few nodes that could
///    match instead of filtering all of them afterwards.
///  * **Document-order ranks** — every attached node's position in the
///    global document order, making `Before` one integer compare.
///
/// Dominance is extent containment; tree ancestry only breaks ties
/// between equal extents, which `Dominates` settles when asked by
/// walking the inner node's co-extensive parents, so the index stores
/// nothing for it.
///
/// Pools are held by `shared_ptr` so successive snapshot versions can
/// share them persistently: `Patch` builds the next version's index by
/// rebuilding only the (hierarchy, tag) pools a commit dirtied and
/// aliasing every untouched pool — extent arrays, prefix-max-end and
/// end-sorted companions included — straight from the predecessor.
/// A patched index is byte-identical in behaviour to a fresh build
/// (the constructor remains the equivalence oracle); when the edit is
/// too wide or the preconditions fail, Patch declines and the caller
/// falls back to the constructor.
///
/// Axis semantics implemented here (kept bit-identical to the
/// evaluator's naive scans, which remain available as an equivalence
/// oracle — see xpath::AxisStrategy):
///  * `Dominated`/`Dominating` — descendant/ancestor on element pools;
///  * `Contained` — plain extent containment excluding the context
///    (the descendant axis' leaf rule: a leaf co-extensive with the
///    context element *is* a descendant);
///  * `FollowingOf`/`PrecedingOf` — strictly after/before in content
///    order, excluding equal-extent twins (which can only arise between
///    zero-width milestones at the same position);
///  * `OverlappingOf` — proper extent overlap, the paper's concurrent
///    markup relation.
class SnapshotIndex {
 public:
  /// Builds over all attached nodes of `g`. `g` must outlive the index
  /// and must not be mutated while the index is in use (snapshots are
  /// immutable by contract; rebuild after mutating a private copy).
  explicit SnapshotIndex(const Goddag& g);

  /// One (hierarchy, tag)-restricted view of the attached nodes.
  struct Pool {
    /// Nodes in document order (== extent begin asc, end desc, with
    /// Goddag::Before tie-breaks).
    std::vector<NodeId> nodes;
    /// Parallel extent arrays (cache-friendly scans without chasing
    /// back into the arena).
    std::vector<size_t> begins;
    std::vector<size_t> ends;
    /// max_end[i] = max(ends[0..i]): scanning left from an upper bound
    /// stops as soon as no earlier entry can still reach the query.
    std::vector<size_t> max_end;
    /// Node ids re-sorted by extent end asc (for preceding ranges).
    std::vector<NodeId> by_end;
    /// Parallel end offsets for by_end.
    std::vector<size_t> end_keys;

    bool empty() const { return nodes.empty(); }
    size_t size() const { return nodes.size(); }
  };

  /// Pool-sharing tallies of one Patch attempt, for observability
  /// (cxml_index_pool_reuse_total and friends).
  struct PatchStats {
    /// Pool objects aliased from the predecessor index untouched.
    size_t pools_shared = 0;
    /// Pool objects rebuilt because the commit dirtied their key.
    size_t pools_rebuilt = 0;
    /// Authoritative touched-node count from the arena diff.
    size_t touched_nodes = 0;
  };

  /// Builds the index for `g` by patching `prev` — the index of the
  /// snapshot `g` was cloned from — instead of rebuilding from
  /// scratch. NodeIds survive Goddag::Clone verbatim, so the
  /// authoritative set of changed nodes is derived from the arena diff
  /// (prev's recorded order/extents vs `g`); `delta` contributes
  /// provenance (its presence asserts the clone relationship) and the
  /// wide-edit veto. Only pools whose (hierarchy, tag) key a touched
  /// node dirtied are rebuilt; everything else — including the global
  /// document order's untouched spine — is shared with `prev` via
  /// shared_ptr, so a small commit costs O(touched + dirty pools +
  /// n·cheap) instead of the constructor's full sort.
  ///
  /// Returns nullptr when patching is not worth it or not safe —
  /// wide/absent delta, arena shrank, hierarchy count changed, more
  /// than max(64, ranked/8) nodes touched, or the merged order fails
  /// verification — and the caller must fall back to the constructor.
  /// `prev` may be deleted afterwards: shared pools are plain value
  /// arrays with no reference back into prev or its GODDAG.
  static std::shared_ptr<const SnapshotIndex> Patch(
      const SnapshotIndex& prev, const Goddag& g, const IndexDelta& delta,
      PatchStats* stats = nullptr);

  /// Element pool for hierarchy `hq` (kInvalidHierarchy = all) and
  /// `tag` (empty = any). Returns an empty pool for unknown
  /// combinations — never fails.
  const Pool& Elements(HierarchyId hq, std::string_view tag = {}) const;
  /// The shared leaf layer (content order == document order).
  const Pool& Leaves() const;

  /// The members of `pool` whose flag in `keep` (parallel to
  /// pool.nodes) is set, as a pool of their own: document order kept,
  /// extent arrays copied, prefix-max-end and end order rebuilt over
  /// the subset. Every collector runs on it unchanged and returns the
  /// full pool's answer restricted to those members. The evaluator
  /// builds R, the members of an existential step's pool passing its
  /// filters (`[ancestor::s[@n='206']]`), this way when the step's
  /// candidates outnumber the pool: it walks R (its begin and end
  /// orders pick the r that following/preceding need) to mark the
  /// candidates' pool with the inverse collectors, and later candidates
  /// of the same evaluation that are checked one by one search R
  /// instead of the whole pool.
  static Pool Subset(const Pool& pool, const std::vector<char>& keep);

  // ----------------------------------------------------- node relations
  /// Document-order position of an attached node (root, element, leaf);
  /// kUnranked for detached nodes.
  static constexpr uint32_t kUnranked = static_cast<uint32_t>(-1);
  uint32_t rank(NodeId node) const { return rank_[node]; }
  /// Document-order comparison via ranks; matches Goddag::Before for
  /// attached nodes.
  bool Before(NodeId a, NodeId b) const { return rank_[a] < rank_[b]; }
  /// Extent containment with equal-extent disambiguation — the same
  /// relation as the evaluator's naive Dominates: `outer` dominates
  /// `inner` when inner's extent is strictly inside outer's, or extents
  /// are equal and `outer` is a tree ancestor of `inner`. Equal extents
  /// cost a walk up inner's parents while they keep its extent, usually
  /// one or two nodes.
  bool Dominates(NodeId outer, NodeId inner) const;

  // -------------------------------------------------- axis primitives
  // All collectors append matching node ids to `*out` (callers own
  // deduplication and final document-order normalisation).

  /// Pool nodes dominated by `ctx` — the descendant axis over elements.
  void Dominated(const Pool& pool, NodeId ctx, std::vector<NodeId>* out) const;
  /// Element-pool nodes whose tree parent is `ctx` or a node `ctx`
  /// dominates — `descendant-or-self::node()/child::T` (the `//T`
  /// abbreviation) from an element or leaf context in one scan of
  /// Dominated's window. Narrower than Dominated: an element the context
  /// dominates is kept only when its parent is the context or is
  /// dominated by it as well.
  void ChildrenOfDominated(const Pool& pool, NodeId ctx,
                           std::vector<NodeId>* out) const;
  /// Pool nodes whose extent is contained in ctx's (equal allowed),
  /// excluding `ctx` itself — the descendant axis' leaf rule.
  void Contained(const Pool& pool, NodeId ctx, std::vector<NodeId>* out) const;
  /// Pool nodes dominating `ctx` — the ancestor axis over elements.
  void Dominating(const Pool& pool, NodeId ctx,
                  std::vector<NodeId>* out) const;
  /// Positional-pushdown variants of Dominated/Contained: the first or
  /// last pool node (in document order — pool order IS document order)
  /// the full collector would have appended, found without
  /// materialising the window. kInvalidNode when the window is empty.
  /// The evaluator uses these for compiled descendant steps whose
  /// leading predicate is [1] or [last()] (see xpath::StepPlan).
  NodeId DominatedFirst(const Pool& pool, NodeId ctx) const;
  NodeId DominatedLast(const Pool& pool, NodeId ctx) const;
  NodeId ContainedFirst(const Pool& pool, NodeId ctx) const;
  NodeId ContainedLast(const Pool& pool, NodeId ctx) const;

  /// Pool nodes whose extent starts at or after ctx's end, excluding
  /// equal-extent twins (zero-width contexts).
  void FollowingOf(const Pool& pool, NodeId ctx,
                   std::vector<NodeId>* out) const;
  /// Pool nodes whose extent ends at or before ctx's begin, excluding
  /// equal-extent twins. Appends in extent-end order, not document
  /// order.
  void PrecedingOf(const Pool& pool, NodeId ctx,
                   std::vector<NodeId>* out) const;
  /// Pool nodes properly overlapping `span`, excluding `ctx`.
  void OverlappingOf(const Pool& pool, const Interval& span, NodeId ctx,
                     std::vector<NodeId>* out) const;

  /// Sorts into document order by rank and removes duplicates
  /// (equivalent to Goddag::SortDocumentOrder for attached nodes).
  void SortDocumentOrder(std::vector<NodeId>* nodes) const;

  size_t num_ranked() const { return num_ranked_; }

 private:
  using PoolPtr = std::shared_ptr<const Pool>;

  struct TagPools {
    PoolPtr any;
    std::map<std::string, PoolPtr, std::less<>> by_tag;
  };

  /// For Patch: members are filled field by field.
  SnapshotIndex() = default;

  /// Installs the document order, its extents (what the next Patch
  /// diffs against) and the ranks. Patch assembles the arrays from the
  /// predecessor's carried stretches plus the window.
  void AdoptRanks(const Goddag& g, std::vector<NodeId> order,
                  std::vector<size_t> begins, std::vector<size_t> ends);

  static void FinishPool(const Goddag& g, Pool* pool);
  /// The one containment scan behind Dominated/Contained First/Last:
  /// walks the window forward or backward and returns the first node
  /// passing the shared filter (`dominated` adds the equal-extent
  /// EqDominates rule; without it, equal extents are plain
  /// containment). Keeping a single copy is what guarantees the
  /// positional pushdown can never diverge from the full collectors.
  NodeId ScanContainment(const Pool& pool, NodeId ctx, bool from_back,
                         bool dominated) const;
  /// Whether `outer`, whose extent equals `inner`'s, is a tree ancestor
  /// of `inner` (through any hierarchy's parent, for a leaf).
  bool EqDominates(NodeId outer, NodeId inner) const;

  const Goddag* g_ = nullptr;
  /// Arena-indexed document-order ranks (kUnranked for detached nodes).
  std::vector<uint32_t> rank_;
  size_t num_ranked_ = 0;
  /// The global document order and its extents *as of this build* —
  /// what Patch diffs the successor GODDAG against, so the predecessor
  /// GODDAG itself is never needed again.
  std::vector<NodeId> order_;
  std::vector<size_t> order_begins_;
  std::vector<size_t> order_ends_;
  /// layers_[0] = all hierarchies; layers_[h + 1] = hierarchy h.
  /// Pool objects may be shared with neighbouring versions' indexes.
  std::vector<TagPools> layers_;
  PoolPtr leaves_;
};

}  // namespace cxml::goddag

#endif  // CXML_GODDAG_SNAPSHOT_INDEX_H_
