#ifndef CXML_XPATH_EVALUATOR_H_
#define CXML_XPATH_EVALUATOR_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "goddag/goddag.h"
#include "goddag/snapshot_index.h"
#include "xpath/ast.h"
#include "xpath/value.h"

namespace cxml::xpath {

/// How the evaluator answers the global axes (descendant, ancestor,
/// following, preceding and the overlapping family).
enum class AxisStrategy {
  /// Binary-searched (hierarchy, tag) pools on a goddag::SnapshotIndex:
  /// O(log n + scanned window) per context node — the window is the
  /// matches for following/preceding and tag-restricted descendant
  /// steps, and can widen toward O(pool) for ancestor/overlapping
  /// under document-spanning elements (see SnapshotIndex). The
  /// default.
  kIndexed,
  /// The paper-literal full scans over AllElements()/leaves() with
  /// per-pair extent checks: O(n) per context node. Kept as the
  /// equivalence oracle — both strategies must return identical node
  /// sets (pinned by snapshot_index_test).
  kNaiveScan,
};

/// Running tallies of how the evaluator actually answered axis steps —
/// which strategy fired and how many pool nodes were pulled into
/// windows. Plain counters (the evaluator is single-threaded); the
/// service layer reads them around an evaluation and feeds the deltas
/// into its metrics registry and trace notes, which is the raw
/// selectivity data the planned cost-based planner consumes.
struct AxisStats {
  /// Global-axis steps answered from SnapshotIndex pools.
  uint64_t indexed_axes = 0;
  /// Global-axis steps answered by full AllElements()/leaves() scans.
  uint64_t naive_axes = 0;
  /// Steps short-circuited by the compiled [1]/[last()] pushdown.
  uint64_t pushdown_axes = 0;
  /// Total size of the (hierarchy, tag) pools touched via
  /// ElementPoolFor — the window the indexed strategies search in. An
  /// existential step checked per candidate tallies the pool it
  /// searched (the restricted pool once built); one answered from the
  /// small side tallies its step's pool once, for building R, and the
  /// candidates' pool once per probe.
  uint64_t pool_nodes = 0;
  /// Step predicates answered by a compiled attribute filter, one per
  /// candidate (PredicatePlan::Kind::kAttributeFilter).
  uint64_t filter_preds = 0;
  /// Step predicates answered by an existential plan, one per
  /// candidate (PredicatePlan::Kind::kExists).
  uint64_t exists_preds = 0;
  /// Restricted pools (R, SnapshotIndex::Subset) built for filtered
  /// existential steps.
  uint64_t restricted_pools = 0;
  /// Existential predicates answered from the small side: one per
  /// filter pass that marked its candidates' pool from R instead of
  /// checking each candidate.
  uint64_t semijoins = 0;

  /// "indexed=N naive=N pushdown=N pool_nodes=N filter=N exists=N
  /// restricted=N semijoins=N"
  std::string Summary() const;
};

/// Extended XPath evaluator over a GODDAG.
///
/// Semantics follow XPath 1.0 with the document-order, axis and
/// string-value definitions lifted to the GODDAG:
///  * a node may have one parent per hierarchy (leaves do);
///  * `following`/`preceding` are extent-based (strictly after/before in
///    content). Equal-extent nodes — only possible between zero-width
///    milestones at the same position — are neither following nor
///    preceding each other, for elements and leaves alike;
///  * the `overlapping` axes implement the paper's concurrent-markup
///    queries, with optional hierarchy qualifiers on every axis;
///  * `//` abbreviates `/descendant-or-self::node()/`, so `//T` selects
///    the T children of the context or of any node it dominates. That
///    is not the extent-based descendant axis: a `w` inside a `line`'s
///    extent is the child of an `s`, so `//line//w` misses it while
///    `//line/descendant::w` finds it. Under kIndexed a compiled `//T`
///    (T a name or `*`) is answered as one scan of the T pool
///    (StepPlan::fuse_with_child); kNaiveScan evaluates both steps
///    literally and stays the oracle.
///
/// Step predicates run through the generic expression loop, once per
/// candidate, except under kIndexed on compiled steps, where two kinds
/// take a plan (StepPlan::predicates) on element and root candidates:
///  * an attribute filter (`[@n='206']`, `[@n >= 3 and @n < 9]`,
///    `[not(@a)]`) is checked against Goddag::attributes directly;
///  * an existential step `axis::S[f]` (`[ancestor::s[@n='206']]`,
///    `[overlapping::line]`) is a semi-join, driven from the smaller
///    side, decided once per filter pass. When the candidates are no
///    more than S's (hierarchy, S) pool, each candidate asks the
///    SnapshotIndex collector for its axis window and stops at the
///    first node passing f. When they outnumber that pool, R — the
///    pool's members passing f (SnapshotIndex::Subset; the whole pool
///    when the step has no filter) — is built once per Evaluate call,
///    and each r in R runs the inverse collector over the candidates'
///    own (hierarchy, T) pool, marking the members it answers for:
///    Dominated for ancestor, Dominating for descendant, OverlappingOf
///    for overlapping (start and end swapped for the directional
///    forms), PrecedingOf for following and FollowingOf for preceding
///    (from the r with the latest start or the earliest end only: every
///    other r's window lies inside theirs). The root rule of the
///    ancestor axes and the -or-self rule are marked without a probe.
///    From the document node the fused `//T` step's answer is the
///    marked pool entries in pool order, so the pool is never copied
///    out as candidates; other candidate sets keep the marked members,
///    and non-members (the root, a context an -or-self axis adds) are
///    checked on their own.
/// Neither depends on the candidate's position, so the fused `//T`
/// step runs leading ones over all candidates before regrouping by
/// parent. Everything else (positional and numeric predicates, boolean
/// operands, variables, functions, multi-step paths) and attribute,
/// document and leaf candidates stay on the generic loop. kNaiveScan
/// takes no plan at all: it is the literal evaluation the plans are
/// checked against.
///
/// The evaluator is deliberately stateless across calls except for a
/// lazily built (or externally shared, see SetSnapshotIndex) snapshot
/// index — invalidated by Reset() — and variable bindings. Restricted
/// pools and marks live for one Evaluate call.
class Evaluator {
 public:
  /// `g` must outlive the evaluator.
  explicit Evaluator(const goddag::Goddag& g) : g_(&g) {}

  /// Evaluates against a context node (default: the virtual document
  /// node, so absolute and relative paths both work naturally).
  Result<Value> Evaluate(const Expr& expr,
                         NodeEntry context = NodeEntry::Document());

  /// Binds $name. Overwrites existing bindings.
  void SetVariable(const std::string& name, Value value);
  /// Every binding, and their wholesale replacement — how a caller that
  /// binds temporaries (one XQuery FLWOR Run) restores what it found.
  const std::map<std::string, Value>& variables() const {
    return variables_;
  }
  void SetVariables(std::map<std::string, Value> variables) {
    variables_ = std::move(variables);
  }

  /// Selects indexed vs naive-scan axes (see AxisStrategy).
  void SetAxisStrategy(AxisStrategy strategy) { strategy_ = strategy; }
  AxisStrategy axis_strategy() const { return strategy_; }

  /// Enables/disables the compiled positional pushdown (StepPlan in
  /// ast.h): a descendant/child step whose leading predicate is [1] or
  /// [last()] selects its single node straight from the SnapshotIndex
  /// pool instead of materialising the full axis window. On by
  /// default; only takes effect under AxisStrategy::kIndexed on steps
  /// annotated by xpath::Compile, so the naive scans stay the oracle.
  void SetPositionalPushdown(bool enabled) {
    positional_pushdown_ = enabled;
  }
  bool positional_pushdown() const { return positional_pushdown_; }

  /// Adopts a prebuilt index over the same GODDAG — typically the one a
  /// service::DocumentSnapshot builds, so every per-request evaluator on
  /// a published version shares one build. Without this, the evaluator
  /// lazily builds a private index on first indexed-axis use.
  void SetSnapshotIndex(std::shared_ptr<const goddag::SnapshotIndex> index) {
    index_ = std::move(index);
  }

  /// Drops cached/adopted indexes after the GODDAG was mutated.
  void Reset() { index_.reset(); }

  /// Axis-strategy tallies accumulated since the last reset.
  const AxisStats& axis_stats() const { return stats_; }
  void ResetAxisStats() { stats_ = AxisStats(); }

 private:
  struct Context {
    NodeEntry node;
    size_t position = 1;  // 1-based
    size_t size = 1;
  };

  Result<Value> EvalExpr(const Expr& expr, const Context& ctx);
  Result<Value> EvalFilter(const Expr& expr, const Context& ctx);
  /// The one step loop behind location paths and filter-expression
  /// paths, and the only place that picks the fused `//T` step
  /// (StepPlan::fuse_with_child, indexed strategy only).
  Result<NodeSet> EvalSteps(const std::vector<Step>& steps, NodeSet current);
  Result<NodeSet> EvalStep(const Step& step, NodeSet input);
  /// `descendant-or-self::node()/child` answered as one step: for each
  /// context, the `child` step's pool nodes whose parent is the context
  /// or a node it dominates (plus the root, from the document node).
  /// Predicates run per parent, so positions keep their child-axis
  /// meaning.
  Result<NodeSet> EvalDescendantChild(const Step& child, NodeSet input);
  /// Filters `nodes` through predicates [begin, end) in turn, each with
  /// proximity positions over what the previous one kept. `plans` is
  /// StepPlan::predicates (empty for filter expressions); a planned
  /// predicate skips EvalExpr on element and root candidates under
  /// kIndexed. `owner` is the step whose candidates `nodes` are (null
  /// for filter expressions): its pool is what an existential
  /// predicate answered from the small side marks.
  Status FilterByPredicates(const std::vector<ExprPtr>& predicates,
                            const std::vector<PredicatePlan>& plans,
                            size_t begin, size_t end, const Step* owner,
                            NodeSet* nodes);
  /// The number of leading predicates of `step` that take a plan (and
  /// so do not depend on position) under the current strategy.
  size_t LeadingPlanned(const Step& step) const;
  /// True when `filter` holds on `node`'s attributes.
  bool PassesFilter(const AttrFilter& filter, goddag::NodeId node) const;
  /// True when `node` passes every predicate of `step` (all attribute
  /// filters, see PredicatePlan::Kind::kExists).
  bool PassesFilters(const Step& step, goddag::NodeId node) const;
  /// One existential step's state within one Evaluate call: its
  /// (hierarchy, S) pool, and what answering it from the small side
  /// built.
  struct ExistsState {
    /// `marks` values.
    enum Mark : uint8_t { kNotMember, kMiss, kHit };

    const Step* step = nullptr;
    const goddag::SnapshotIndex::Pool* pool = nullptr;
    /// Ancestor axes: the root matches S and passes the filters, so
    /// every context but the root itself has a hit.
    bool root_hit = false;
    /// R of a filtered step, once the small side built it; from then on
    /// per-candidate checks search it instead of `pool`.
    std::unique_ptr<const goddag::SnapshotIndex::Pool> restricted;
    /// The candidates' pool `marks` covers, and the marks, indexed by
    /// NodeId.
    const goddag::SnapshotIndex::Pool* marked = nullptr;
    std::vector<Mark> marks;
  };
  /// The state of existential step `step` in this Evaluate call. The
  /// first use resolves the step's hierarchy, as the literal step's
  /// AxisNodes would at its first context, so an unknown hierarchy
  /// errors exactly when the literal form does.
  Result<ExistsState*> ExistsStateFor(const Step& step);
  /// Decides which side answers the state's step over `candidates`
  /// candidates of `owner`: when they outnumber the step's pool, marks
  /// owner's pool (MarkHits, once per Evaluate call); otherwise leaves
  /// each candidate to StepNonEmpty's own window.
  Status MarkFromSmallSide(ExistsState* st, size_t candidates,
                           const Step* owner);
  /// Marks every member of `members` with whether the state's step
  /// holds on it: the root and -or-self rules first, then one inverse
  /// collector per r in R.
  void MarkHits(ExistsState* st, const goddag::SnapshotIndex::Pool& members);
  /// A kExists predicate on element or root `ctx`: is the filtered
  /// axis window of the state's step non-empty? The marks answer for a
  /// member of the marked pool; otherwise mirrors AxisNodes for the
  /// step's axis, including the root that ancestor axes add and the
  /// context that -or-self axes add.
  bool StepNonEmpty(ExistsState* st, goddag::NodeId ctx);
  Result<NodeSet> AxisNodes(const Step& step, const NodeEntry& ctx);
  Result<Value> CallFunction(const Expr& call, const Context& ctx);
  Result<Value> Compare(Expr::Kind op, const Value& lhs, const Value& rhs);

  /// Resolves a step's hierarchy qualifier to an id; nullopt when the
  /// step has none. Errors on unknown names.
  Result<goddag::HierarchyId> ResolveHierarchy(const std::string& name)
      const;

  bool MatchesTest(const NodeTest& test, const NodeEntry& entry,
                   bool attribute_axis) const;

  /// The snapshot index (lazily built when none was adopted).
  const goddag::SnapshotIndex& index();
  /// The element pool matching a step's hierarchy qualifier and name
  /// test — the "prune before the axis scan" selection.
  const goddag::SnapshotIndex::Pool& ElementPoolFor(goddag::HierarchyId hq,
                                                    const NodeTest& test);
  /// Document-order sort + dedup: O(1) rank compares when an index is
  /// live, Value::Normalize otherwise (identical order either way).
  void NormalizeSet(NodeSet* set);

  /// True when `step` should resolve through the positional pushdown
  /// (plan present, pushdown enabled, indexed strategy).
  bool UsePositional(const Step& step) const {
    return positional_pushdown_ && strategy_ == AxisStrategy::kIndexed &&
           step.plan.positional != StepPlan::Positional::kNone;
  }

  const goddag::Goddag* g_;
  std::map<std::string, Value> variables_;
  AxisStrategy strategy_ = AxisStrategy::kIndexed;
  bool positional_pushdown_ = true;
  std::shared_ptr<const goddag::SnapshotIndex> index_;
  AxisStats stats_;
  /// Reused axis-result buffer (AxisNodes never recurses while filling).
  std::vector<goddag::NodeId> scratch_;
  /// Cleared when Evaluate returns, so a restricted pool never outlives
  /// the call (and the expression) it was built for. Held by pointer: a
  /// generic evaluation nested in one step's filter pass may add states.
  std::vector<std::unique_ptr<ExistsState>> exists_;
};

}  // namespace cxml::xpath

#endif  // CXML_XPATH_EVALUATOR_H_
