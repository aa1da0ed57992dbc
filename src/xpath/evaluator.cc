#include "xpath/evaluator.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace cxml::xpath {

using goddag::Goddag;
using goddag::HierarchyId;
using goddag::kInvalidHierarchy;
using goddag::kInvalidNode;
using goddag::NodeId;

void Evaluator::SetVariable(const std::string& name, Value value) {
  variables_.insert_or_assign(name, std::move(value));
}

const goddag::SnapshotIndex& Evaluator::index() {
  if (index_ == nullptr) {
    index_ = std::make_shared<const goddag::SnapshotIndex>(*g_);
  }
  return *index_;
}

std::string AxisStats::Summary() const {
  return StrFormat(
      "indexed=%llu naive=%llu pushdown=%llu pool_nodes=%llu filter=%llu "
      "exists=%llu restricted=%llu semijoins=%llu",
      static_cast<unsigned long long>(indexed_axes),
      static_cast<unsigned long long>(naive_axes),
      static_cast<unsigned long long>(pushdown_axes),
      static_cast<unsigned long long>(pool_nodes),
      static_cast<unsigned long long>(filter_preds),
      static_cast<unsigned long long>(exists_preds),
      static_cast<unsigned long long>(restricted_pools),
      static_cast<unsigned long long>(semijoins));
}

namespace {

/// The pool tag a name test selects (empty: any tag).
std::string_view PoolTag(const NodeTest& test) {
  return test.kind == NodeTest::Kind::kName ? std::string_view(test.name)
                                            : std::string_view();
}

bool IsAncestorAxis(AxisKind axis) {
  return axis == AxisKind::kAncestor || axis == AxisKind::kAncestorOrSelf;
}

bool IsOrSelfAxis(AxisKind axis) {
  return axis == AxisKind::kDescendantOrSelf ||
         axis == AxisKind::kAncestorOrSelf;
}

}  // namespace

const goddag::SnapshotIndex::Pool& Evaluator::ElementPoolFor(
    HierarchyId hq, const NodeTest& test) {
  const goddag::SnapshotIndex::Pool& pool = index().Elements(hq, PoolTag(test));
  stats_.pool_nodes += pool.nodes.size();
  return pool;
}

void Evaluator::NormalizeSet(NodeSet* set) {
  if (index_ == nullptr) {
    Value::Normalize(*g_, set);
    return;
  }
  const goddag::SnapshotIndex& idx = *index_;
  auto before = [this, &idx](const NodeEntry& a, const NodeEntry& b) {
    if (a.is_document() != b.is_document()) return a.is_document();
    if (a.node != b.node) {
      uint32_t ra = idx.rank(a.node);
      uint32_t rb = idx.rank(b.node);
      if (ra != rb) return ra < rb;
      // Both detached (kUnranked): structural fallback keeps the order
      // total and identical to Value::Normalize.
      return g_->Before(a.node, b.node);
    }
    return a.attr < b.attr;
  };
  // Pool scans hand most sets over already in document order and
  // duplicate-free; one linear pass spares those the sort.
  if (std::adjacent_find(set->begin(), set->end(),
                         [&before](const NodeEntry& a, const NodeEntry& b) {
                           return !before(a, b);
                         }) == set->end()) {
    return;
  }
  std::sort(set->begin(), set->end(), before);
  set->erase(std::unique(set->begin(), set->end()), set->end());
}

Result<Value> Evaluator::Evaluate(const Expr& expr, NodeEntry context) {
  Context ctx;
  ctx.node = context;
  Result<Value> value = EvalExpr(expr, ctx);
  exists_.clear();
  return value;
}

Result<HierarchyId> Evaluator::ResolveHierarchy(
    const std::string& name) const {
  if (name.empty()) return kInvalidHierarchy;  // "all hierarchies"
  if (g_->cmh() != nullptr) {
    HierarchyId id = g_->cmh()->FindIdByName(name);
    if (id != kInvalidHierarchy) return id;
    return status::InvalidArgument(
        StrCat("XPath: unknown hierarchy '", name, "'"));
  }
  // Without a CMH, allow numeric hierarchy ids.
  HierarchyId id = 0;
  for (char c : name) {
    if (c < '0' || c > '9') {
      return status::InvalidArgument(
          StrCat("XPath: unknown hierarchy '", name,
                 "' (no CMH bound; use numeric ids)"));
    }
    id = id * 10 + static_cast<HierarchyId>(c - '0');
  }
  if (id >= g_->num_hierarchies()) {
    return status::InvalidArgument(
        StrCat("XPath: hierarchy index '", name, "' out of range"));
  }
  return id;
}

bool Evaluator::MatchesTest(const NodeTest& test, const NodeEntry& entry,
                            bool attribute_axis) const {
  if (attribute_axis) {
    if (!entry.is_attribute()) return false;
    switch (test.kind) {
      case NodeTest::Kind::kName: {
        const auto& attrs = g_->attributes(entry.node);
        return entry.attr < static_cast<int32_t>(attrs.size()) &&
               attrs[static_cast<size_t>(entry.attr)].name == test.name;
      }
      case NodeTest::Kind::kAnyName:
      case NodeTest::Kind::kNode:
        return true;
      case NodeTest::Kind::kText:
        return false;
    }
    return false;
  }
  if (entry.is_attribute()) return false;
  if (entry.is_document()) return test.kind == NodeTest::Kind::kNode;
  switch (test.kind) {
    case NodeTest::Kind::kName:
      return !g_->is_leaf(entry.node) && g_->tag(entry.node) == test.name;
    case NodeTest::Kind::kAnyName:
      return !g_->is_leaf(entry.node);
    case NodeTest::Kind::kText:
      return g_->is_leaf(entry.node);
    case NodeTest::Kind::kNode:
      return true;
  }
  return false;
}

namespace {

/// Element candidates can satisfy the step's node test (everything but
/// text()); when true, the indexed path consults the element pool
/// matching the hierarchy qualifier and name test.
bool TestWantsElements(const NodeTest& test) {
  return test.kind != NodeTest::Kind::kText;
}

/// Leaf candidates can satisfy the step's node test (text() or node()).
bool TestWantsLeaves(const NodeTest& test) {
  return test.kind == NodeTest::Kind::kText ||
         test.kind == NodeTest::Kind::kNode;
}

/// True when `anc` is reachable from `node` through parent links (any
/// hierarchy for leaves). Used only to disambiguate equal extents.
bool IsTreeAncestor(const Goddag& g, NodeId anc, NodeId node) {
  std::vector<NodeId> frontier;
  if (g.is_leaf(node)) {
    for (HierarchyId h = 0; h < g.num_hierarchies(); ++h) {
      frontier.push_back(g.leaf_parent(node, h));
    }
  } else if (g.is_element(node)) {
    frontier.push_back(g.parent(node));
  }
  while (!frontier.empty()) {
    NodeId n = frontier.back();
    frontier.pop_back();
    if (n == kInvalidNode) continue;
    if (n == anc) return true;
    if (g.is_element(n)) frontier.push_back(g.parent(n));
  }
  return false;
}

/// Containment with equal-extent disambiguation: `inner` is dominated by
/// `outer` when its extent is strictly inside, or extents are equal and
/// `outer` is a tree ancestor.
bool Dominates(const Goddag& g, NodeId outer, NodeId inner) {
  if (outer == inner) return false;
  Interval o = g.char_range(outer);
  Interval i = g.char_range(inner);
  if (!o.Contains(i)) return false;
  if (o == i) return IsTreeAncestor(g, outer, inner);
  return true;
}

}  // namespace

Result<NodeSet> Evaluator::AxisNodes(const Step& step, const NodeEntry& ctx) {
  CXML_ASSIGN_OR_RETURN(HierarchyId hq, ResolveHierarchy(step.hierarchy));
  const bool all_h = (hq == kInvalidHierarchy);
  const bool attr_axis = step.axis == AxisKind::kAttribute;
  NodeSet out;
  auto add = [&](NodeEntry e) {
    if (MatchesTest(step.test, e, attr_axis)) out.push_back(e);
  };
  auto add_node = [&](NodeId id) { add(NodeEntry::Of(id)); };
  /// Element passes the hierarchy qualifier?
  auto h_ok = [&](NodeId id) {
    return all_h || !g_->is_element(id) || g_->hierarchy(id) == hq;
  };

  switch (step.axis) {
    case AxisKind::kAttribute: {
      if (ctx.is_attribute() || ctx.is_document()) break;
      const auto& attrs = g_->attributes(ctx.node);
      for (size_t i = 0; i < attrs.size(); ++i) {
        add(NodeEntry::Attr(ctx.node, static_cast<int32_t>(i)));
      }
      break;
    }

    case AxisKind::kSelf:
      if (!ctx.is_attribute() || step.test.kind == NodeTest::Kind::kNode) {
        if (ctx.is_attribute()) {
          out.push_back(ctx);
        } else {
          add(ctx);
        }
      }
      break;

    case AxisKind::kChild: {
      if (ctx.is_attribute()) break;
      if (ctx.is_document()) {
        add_node(g_->root());
        break;
      }
      if (g_->is_root(ctx.node)) {
        if (all_h) {
          for (HierarchyId h = 0; h < g_->num_hierarchies(); ++h) {
            for (NodeId c : g_->root_children(h)) add_node(c);
          }
        } else {
          for (NodeId c : g_->root_children(hq)) add_node(c);
        }
      } else if (g_->is_element(ctx.node)) {
        if (all_h || g_->hierarchy(ctx.node) == hq) {
          for (NodeId c : g_->children(ctx.node)) add_node(c);
        }
      }
      break;
    }

    case AxisKind::kDescendant:
    case AxisKind::kDescendantOrSelf: {
      if (ctx.is_attribute()) break;
      if (step.axis == AxisKind::kDescendantOrSelf) add(ctx);
      // Compiled positional pushdown (plan only ever set on plain
      // kDescendant): pick the window's document-order first/last node
      // straight from the pools instead of materialising the window —
      // the singleton then passes the [1]/[last()] predicate trivially.
      const bool push_first =
          step.plan.positional == StepPlan::Positional::kFirst;
      NodeId best = kInvalidNode;
      auto consider = [&](NodeId n) {
        if (n == kInvalidNode) return;
        if (best == kInvalidNode ||
            (push_first ? index().Before(n, best)
                        : index().Before(best, n))) {
          best = n;
        }
      };
      if (ctx.is_document()) {
        add_node(g_->root());
        if (strategy_ == AxisStrategy::kIndexed && UsePositional(step)) {
          ++stats_.pushdown_axes;
          // The root is document-order first; any pool node beats it
          // for [last()].
          if (push_first && !out.empty()) break;
          if (TestWantsElements(step.test)) {
            const auto& pool = ElementPoolFor(hq, step.test);
            if (!pool.empty()) {
              consider(push_first ? pool.nodes.front() : pool.nodes.back());
            }
          }
          if (TestWantsLeaves(step.test)) {
            const auto& leaves = index().Leaves();
            if (!leaves.empty()) {
              consider(push_first ? leaves.nodes.front()
                                  : leaves.nodes.back());
            }
          }
          if (best != kInvalidNode) {
            out.clear();
            out.push_back(NodeEntry::Of(best));
          }
          break;
        }
        if (strategy_ == AxisStrategy::kIndexed) {
          ++stats_.indexed_axes;
          // Whole pools: already restricted to hierarchy + name test.
          if (TestWantsElements(step.test)) {
            for (NodeId e : ElementPoolFor(hq, step.test).nodes) {
              out.push_back(NodeEntry::Of(e));
            }
          }
          if (TestWantsLeaves(step.test)) {
            for (NodeId leaf : index().Leaves().nodes) {
              out.push_back(NodeEntry::Of(leaf));
            }
          }
        } else {
          ++stats_.naive_axes;
          for (NodeId e : g_->AllElements()) {
            if (h_ok(e)) add_node(e);
          }
          for (NodeId leaf : g_->leaves()) add_node(leaf);
        }
        break;
      }
      if (strategy_ == AxisStrategy::kIndexed) {
        if (UsePositional(step)) {
          ++stats_.pushdown_axes;
          if (TestWantsElements(step.test)) {
            const auto& pool = ElementPoolFor(hq, step.test);
            consider(push_first ? index().DominatedFirst(pool, ctx.node)
                                : index().DominatedLast(pool, ctx.node));
          }
          if (TestWantsLeaves(step.test)) {
            const auto& leaves = index().Leaves();
            consider(push_first
                         ? index().ContainedFirst(leaves, ctx.node)
                         : index().ContainedLast(leaves, ctx.node));
          }
          if (best != kInvalidNode) out.push_back(NodeEntry::Of(best));
          break;
        }
        ++stats_.indexed_axes;
        scratch_.clear();
        if (TestWantsElements(step.test)) {
          index().Dominated(ElementPoolFor(hq, step.test), ctx.node,
                            &scratch_);
        }
        if (TestWantsLeaves(step.test)) {
          index().Contained(index().Leaves(), ctx.node, &scratch_);
        }
        for (NodeId n : scratch_) out.push_back(NodeEntry::Of(n));
        break;
      }
      // Extent-dominated nodes (the GODDAG "ordered descendants").
      ++stats_.naive_axes;
      for (NodeId e : g_->AllElements()) {
        if (h_ok(e) && Dominates(*g_, ctx.node, e)) add_node(e);
      }
      Interval span = g_->char_range(ctx.node);
      for (NodeId leaf : g_->leaves()) {
        if (span.Contains(g_->char_range(leaf)) && leaf != ctx.node) {
          add_node(leaf);
        }
      }
      break;
    }

    case AxisKind::kParent: {
      if (ctx.is_document()) break;
      if (ctx.is_attribute()) {
        add(NodeEntry::Of(ctx.node));
        break;
      }
      if (g_->is_root(ctx.node)) {
        add(NodeEntry::Document());
        break;
      }
      if (g_->is_element(ctx.node)) {
        if (all_h || g_->hierarchy(ctx.node) == hq) {
          add_node(g_->parent(ctx.node));
        }
      } else {  // leaf: one parent per hierarchy
        if (all_h) {
          for (HierarchyId h = 0; h < g_->num_hierarchies(); ++h) {
            add_node(g_->leaf_parent(ctx.node, h));
          }
        } else {
          add_node(g_->leaf_parent(ctx.node, hq));
        }
      }
      break;
    }

    case AxisKind::kAncestor:
    case AxisKind::kAncestorOrSelf: {
      if (ctx.is_document()) {
        if (step.axis == AxisKind::kAncestorOrSelf) add(ctx);
        break;
      }
      // For an attribute, its owning element is the first ancestor.
      NodeId base = ctx.node;
      if (ctx.is_attribute()) {
        add(NodeEntry::Of(base));
      } else if (step.axis == AxisKind::kAncestorOrSelf) {
        add(ctx);
      }
      // Extent-dominating nodes + root + document.
      if (!g_->is_root(base)) {
        if (strategy_ == AxisStrategy::kIndexed) {
          ++stats_.indexed_axes;
          if (TestWantsElements(step.test)) {
            scratch_.clear();
            index().Dominating(ElementPoolFor(hq, step.test), base,
                               &scratch_);
            for (NodeId n : scratch_) out.push_back(NodeEntry::Of(n));
          }
        } else {
          ++stats_.naive_axes;
          for (NodeId e : g_->AllElements()) {
            if (h_ok(e) && Dominates(*g_, e, base)) add_node(e);
          }
        }
        add_node(g_->root());
      }
      add(NodeEntry::Document());
      break;
    }

    case AxisKind::kFollowingSibling:
    case AxisKind::kPrecedingSibling: {
      if (ctx.is_attribute() || ctx.is_document() ||
          g_->is_root(ctx.node)) {
        break;
      }
      const bool forward = step.axis == AxisKind::kFollowingSibling;
      auto scan = [&](Span<NodeId> siblings) {
        auto it = std::find(siblings.begin(), siblings.end(), ctx.node);
        if (it == siblings.end()) return;
        if (forward) {
          for (auto s = it + 1; s != siblings.end(); ++s) add_node(*s);
        } else {
          for (auto s = siblings.begin(); s != it; ++s) add_node(*s);
        }
      };
      if (g_->is_element(ctx.node)) {
        HierarchyId h = g_->hierarchy(ctx.node);
        if (!all_h && h != hq) break;
        NodeId p = g_->parent(ctx.node);
        scan(p == g_->root() ? g_->root_children(h) : g_->children(p));
      } else {  // leaf: siblings per hierarchy
        for (HierarchyId h = 0; h < g_->num_hierarchies(); ++h) {
          if (!all_h && h != hq) continue;
          NodeId p = g_->leaf_parent(ctx.node, h);
          scan(p == g_->root() ? g_->root_children(h) : g_->children(p));
        }
      }
      break;
    }

    case AxisKind::kFollowing:
    case AxisKind::kPreceding: {
      if (ctx.is_document()) break;
      const bool forward = step.axis == AxisKind::kFollowing;
      if (strategy_ == AxisStrategy::kIndexed) {
        ++stats_.indexed_axes;
        scratch_.clear();
        if (TestWantsElements(step.test)) {
          const auto& pool = ElementPoolFor(hq, step.test);
          if (forward) {
            index().FollowingOf(pool, ctx.node, &scratch_);
          } else {
            index().PrecedingOf(pool, ctx.node, &scratch_);
          }
        }
        if (TestWantsLeaves(step.test)) {
          if (forward) {
            index().FollowingOf(index().Leaves(), ctx.node, &scratch_);
          } else {
            index().PrecedingOf(index().Leaves(), ctx.node, &scratch_);
          }
        }
        for (NodeId n : scratch_) out.push_back(NodeEntry::Of(n));
        break;
      }
      Interval span = g_->char_range(ctx.node);
      ++stats_.naive_axes;
      for (NodeId e : g_->AllElements()) {
        if (!h_ok(e) || e == ctx.node) continue;
        Interval o = g_->char_range(e);
        if (forward ? o.begin >= span.end && !(o == span)
                    : o.end <= span.begin && !(o == span)) {
          add_node(e);
        }
      }
      for (NodeId leaf : g_->leaves()) {
        if (leaf == ctx.node) continue;
        Interval o = g_->char_range(leaf);
        // Equal-extent twins are excluded exactly as for elements (a
        // no-op in practice: leaves are never zero-width, and only
        // zero-width nodes can share an extent with the context here —
        // see the header's following/preceding contract).
        if (forward ? o.begin >= span.end && !(o == span)
                    : o.end <= span.begin && !(o == span)) {
          add_node(leaf);
        }
      }
      break;
    }

    case AxisKind::kOverlapping:
    case AxisKind::kOverlappingStart:
    case AxisKind::kOverlappingEnd: {
      if (ctx.is_attribute() || ctx.is_document()) break;
      Interval span = g_->char_range(ctx.node);
      auto keep_mode = [&](const Interval& o) {
        if (step.axis == AxisKind::kOverlappingStart) {
          return span.OverlapsRight(o);  // e starts inside ctx
        }
        if (step.axis == AxisKind::kOverlappingEnd) {
          return span.OverlapsLeft(o);  // e ends inside ctx
        }
        return true;
      };
      // Both strategies consider elements only: leaves tile the content
      // and may straddle element borders, but the paper's overlapping
      // axis asks about concurrent *markup*.
      if (strategy_ == AxisStrategy::kIndexed) {
        ++stats_.indexed_axes;
        if (TestWantsElements(step.test)) {
          scratch_.clear();
          index().OverlappingOf(ElementPoolFor(hq, step.test), span,
                                ctx.node, &scratch_);
          for (NodeId e : scratch_) {
            if (keep_mode(g_->char_range(e))) out.push_back(NodeEntry::Of(e));
          }
        }
        break;
      }
      ++stats_.naive_axes;
      for (NodeId e : g_->AllElements()) {
        if (e == ctx.node || !h_ok(e)) continue;
        Interval o = g_->char_range(e);
        if (span.Overlaps(o) && keep_mode(o)) add_node(e);
      }
      break;
    }
  }

  // Compiled positional pushdown on child steps: the window is just
  // the matching children, but reducing it to the one selected node
  // here keeps the predicate loop (and any further predicates) from
  // running over the rest of the sibling list.
  if (step.axis == AxisKind::kChild && UsePositional(step) &&
      out.size() > 1) {
    ++stats_.pushdown_axes;
    // Structural Before, not index().Before: a child window is a
    // handful of siblings, and building a whole SnapshotIndex just to
    // order them would cost more than it saves on engines that never
    // touch a pool-backed axis.
    const bool first =
        step.plan.positional == StepPlan::Positional::kFirst;
    NodeEntry chosen = out.front();
    for (size_t i = 1; i < out.size(); ++i) {
      if (first ? g_->Before(out[i].node, chosen.node)
                : g_->Before(chosen.node, out[i].node)) {
        chosen = out[i];
      }
    }
    out.assign(1, chosen);
  }

  NormalizeSet(&out);
  return out;
}

Status Evaluator::FilterByPredicates(const std::vector<ExprPtr>& predicates,
                                     const std::vector<PredicatePlan>& plans,
                                     size_t begin, size_t end,
                                     const Step* owner, NodeSet* nodes) {
  const bool planned = strategy_ == AxisStrategy::kIndexed && !plans.empty();
  for (size_t p = begin; p < end; ++p) {
    const PredicatePlan::Kind plan =
        planned ? plans[p].kind : PredicatePlan::Kind::kGeneric;
    // The literal step resolves its hierarchy at any first candidate,
    // whatever its kind, so resolving it before the loop errors alike.
    ExistsState* exists = nullptr;
    if (plan == PredicatePlan::Kind::kExists && !nodes->empty()) {
      CXML_ASSIGN_OR_RETURN(exists,
                            ExistsStateFor(predicates[p]->path.steps.front()));
      CXML_RETURN_IF_ERROR(MarkFromSmallSide(exists, nodes->size(), owner));
    }
    NodeSet filtered;
    for (size_t i = 0; i < nodes->size(); ++i) {
      const NodeEntry& entry = (*nodes)[i];
      bool keep = false;
      if (plan != PredicatePlan::Kind::kGeneric && !entry.is_attribute() &&
          !entry.is_document() && !g_->is_leaf(entry.node)) {
        if (plan == PredicatePlan::Kind::kAttributeFilter) {
          ++stats_.filter_preds;
          keep = PassesFilter(plans[p].filter, entry.node);
        } else {
          ++stats_.exists_preds;
          keep = StepNonEmpty(exists, entry.node);
        }
      } else {
        Context pctx;
        pctx.node = entry;
        pctx.position = i + 1;
        pctx.size = nodes->size();
        CXML_ASSIGN_OR_RETURN(Value v, EvalExpr(*predicates[p], pctx));
        keep = (v.type() == Value::Type::kNumber)
                   ? (v.ToNumber(*g_) == static_cast<double>(pctx.position))
                   : v.ToBoolean();
      }
      if (keep) filtered.push_back(entry);
    }
    *nodes = std::move(filtered);
  }
  return Status::Ok();
}

size_t Evaluator::LeadingPlanned(const Step& step) const {
  if (strategy_ != AxisStrategy::kIndexed) return 0;
  size_t n = 0;
  while (n < step.plan.predicates.size() &&
         step.plan.predicates[n].kind != PredicatePlan::Kind::kGeneric) {
    ++n;
  }
  return n;
}

namespace {

/// One attribute value against a kCompare filter (the attribute is the
/// left operand).
bool AttrCompare(const AttrFilter& filter, const std::string& value) {
  using Op = AttrFilter::Op;
  if (filter.by_string) return (value == filter.text) == (filter.op == Op::kEq);
  const double v = ParseXPathNumber(value);
  switch (filter.op) {
    case Op::kEq:
      return v == filter.number;
    case Op::kNe:
      return v != filter.number;
    case Op::kLt:
      return v < filter.number;
    case Op::kLe:
      return v <= filter.number;
    case Op::kGt:
      return v > filter.number;
    case Op::kGe:
      return v >= filter.number;
  }
  return false;
}

}  // namespace

bool Evaluator::PassesFilter(const AttrFilter& filter, NodeId node) const {
  switch (filter.kind) {
    case AttrFilter::Kind::kAnd:
      return PassesFilter(filter.operands[0], node) &&
             PassesFilter(filter.operands[1], node);
    case AttrFilter::Kind::kOr:
      return PassesFilter(filter.operands[0], node) ||
             PassesFilter(filter.operands[1], node);
    case AttrFilter::Kind::kNot:
      return !PassesFilter(filter.operands[0], node);
    case AttrFilter::Kind::kExists:
    case AttrFilter::Kind::kCompare:
      break;
  }
  // `@a` is every attribute named a, and a comparison holds when one of
  // them satisfies it.
  for (const xml::Attribute& attr : g_->attributes(node)) {
    if (attr.name != filter.name) continue;
    if (filter.kind == AttrFilter::Kind::kExists ||
        AttrCompare(filter, attr.value)) {
      return true;
    }
  }
  return false;
}

bool Evaluator::PassesFilters(const Step& step, NodeId node) const {
  for (const PredicatePlan& plan : step.plan.predicates) {
    if (!PassesFilter(plan.filter, node)) return false;
  }
  return true;
}

Result<Evaluator::ExistsState*> Evaluator::ExistsStateFor(const Step& step) {
  for (const std::unique_ptr<ExistsState>& st : exists_) {
    if (st->step == &step) return st.get();
  }
  CXML_ASSIGN_OR_RETURN(HierarchyId hq, ResolveHierarchy(step.hierarchy));
  auto st = std::make_unique<ExistsState>();
  st->step = &step;
  st->pool = &index().Elements(hq, PoolTag(step.test));
  // AxisNodes ends every ancestor window with the root (whatever the
  // hierarchy qualifier) and the document node, which no name or `*`
  // test matches.
  st->root_hit = IsAncestorAxis(step.axis) &&
                 MatchesTest(step.test, NodeEntry::Of(g_->root()), false) &&
                 PassesFilters(step, g_->root());
  exists_.push_back(std::move(st));
  return exists_.back().get();
}

Status Evaluator::MarkFromSmallSide(ExistsState* st, size_t candidates,
                                    const Step* owner) {
  // No element pool holds text() or attribute candidates.
  if (owner == nullptr || owner->test.kind == NodeTest::Kind::kText ||
      owner->axis == AxisKind::kAttribute ||
      candidates <= st->pool->size()) {
    return Status::Ok();
  }
  CXML_ASSIGN_OR_RETURN(HierarchyId hq, ResolveHierarchy(owner->hierarchy));
  const goddag::SnapshotIndex::Pool& members =
      index().Elements(hq, PoolTag(owner->test));
  if (st->marked != &members) MarkHits(st, members);
  ++stats_.semijoins;
  return Status::Ok();
}

void Evaluator::MarkHits(ExistsState* st,
                         const goddag::SnapshotIndex::Pool& members) {
  const Step& step = *st->step;
  st->marked = &members;
  st->marks.assign(g_->arena_size(), ExistsState::kNotMember);
  // Every member has an ancestor when the root is a hit. Otherwise a
  // member hits on its own only by the -or-self rule, which adds the
  // context whatever the hierarchy qualifier.
  const bool all = IsAncestorAxis(step.axis) && st->root_hit;
  const bool or_self = IsOrSelfAxis(step.axis);
  for (NodeId n : members.nodes) {
    st->marks[n] = all || (or_self &&
                           MatchesTest(step.test, NodeEntry::Of(n), false) &&
                           PassesFilters(step, n))
                       ? ExistsState::kHit
                       : ExistsState::kMiss;
  }
  if (all) return;

  if (!step.predicates.empty() && st->restricted == nullptr) {
    std::vector<char> keep(st->pool->size());
    for (size_t i = 0; i < keep.size(); ++i) {
      keep[i] = PassesFilters(step, st->pool->nodes[i]) ? 1 : 0;
    }
    st->restricted = std::make_unique<const goddag::SnapshotIndex::Pool>(
        goddag::SnapshotIndex::Subset(*st->pool, keep));
    ++stats_.restricted_pools;
    stats_.pool_nodes += st->pool->size();
  }
  const goddag::SnapshotIndex::Pool& r_pool =
      st->restricted != nullptr ? *st->restricted : *st->pool;
  const goddag::SnapshotIndex& idx = *index_;  // ExistsStateFor built it
  // One probe marks the members that have `r` in their window: the
  // axis read from r's side.
  auto probe = [&](NodeId r) {
    ++stats_.indexed_axes;
    stats_.pool_nodes += members.size();
    scratch_.clear();
    switch (step.axis) {
      case AxisKind::kAncestor:
      case AxisKind::kAncestorOrSelf:
        idx.Dominated(members, r, &scratch_);
        break;
      case AxisKind::kDescendant:
      case AxisKind::kDescendantOrSelf:
        idx.Dominating(members, r, &scratch_);
        break;
      case AxisKind::kFollowing:
        idx.PrecedingOf(members, r, &scratch_);
        break;
      case AxisKind::kPreceding:
        idx.FollowingOf(members, r, &scratch_);
        break;
      default: {  // the overlapping family
        const Interval span = g_->char_range(r);
        idx.OverlappingOf(members, span, r, &scratch_);
        if (step.axis == AxisKind::kOverlapping) break;
        // A member m has r starting inside it (overlapping-start from m)
        // when r, seen from its side, has m ending inside it.
        const bool start = step.axis == AxisKind::kOverlappingStart;
        scratch_.erase(
            std::remove_if(scratch_.begin(), scratch_.end(),
                           [&](NodeId m) {
                             const Interval o = g_->char_range(m);
                             return start ? !span.OverlapsLeft(o)
                                          : !span.OverlapsRight(o);
                           }),
            scratch_.end());
      }
    }
    for (NodeId m : scratch_) st->marks[m] = ExistsState::kHit;
  };
  const size_t n = r_pool.size();
  if (step.axis == AxisKind::kFollowing) {
    // A member with some r after it has one of the latest-starting r
    // after it too.
    for (size_t i = n; i-- > 0 && r_pool.begins[i] == r_pool.begins.back();) {
      probe(r_pool.nodes[i]);
    }
  } else if (step.axis == AxisKind::kPreceding) {
    // Likewise for the earliest-ending r before it.
    for (size_t i = 0; i < n && r_pool.end_keys[i] == r_pool.end_keys[0];
         ++i) {
      probe(r_pool.by_end[i]);
    }
  } else {
    for (NodeId r : r_pool.nodes) probe(r);
  }
}

bool Evaluator::StepNonEmpty(ExistsState* st, NodeId ctx) {
  // A member of the marked pool has its answer, rules included, there.
  if (st->marked != nullptr && st->marks[ctx] != ExistsState::kNotMember) {
    return st->marks[ctx] == ExistsState::kHit;
  }
  const Step& step = *st->step;
  // The -or-self axes add the context whatever the hierarchy qualifier.
  if (IsOrSelfAxis(step.axis) &&
      MatchesTest(step.test, NodeEntry::Of(ctx), false) &&
      PassesFilters(step, ctx)) {
    return true;
  }
  if (IsAncestorAxis(step.axis)) {
    // The root's only ancestor is the document node.
    if (g_->is_root(ctx)) return false;
    if (st->root_hit) return true;
  }

  // Restricted-pool members passed the filters when it was built.
  const bool restricted = st->restricted != nullptr;
  const goddag::SnapshotIndex::Pool& pool =
      restricted ? *st->restricted : *st->pool;
  const goddag::SnapshotIndex& idx = *index_;  // ExistsStateFor built it
  ++stats_.indexed_axes;
  stats_.pool_nodes += pool.size();
  scratch_.clear();
  switch (step.axis) {
    case AxisKind::kDescendant:
    case AxisKind::kDescendantOrSelf:
      idx.Dominated(pool, ctx, &scratch_);
      break;
    case AxisKind::kAncestor:
    case AxisKind::kAncestorOrSelf:
      idx.Dominating(pool, ctx, &scratch_);
      break;
    case AxisKind::kFollowing:
      idx.FollowingOf(pool, ctx, &scratch_);
      break;
    case AxisKind::kPreceding:
      idx.PrecedingOf(pool, ctx, &scratch_);
      break;
    default: {  // the overlapping family (PlanPredicate admits no other)
      const Interval span = g_->char_range(ctx);
      idx.OverlappingOf(pool, span, ctx, &scratch_);
      for (NodeId n : scratch_) {
        const Interval o = g_->char_range(n);
        if (step.axis == AxisKind::kOverlappingStart
                ? span.OverlapsRight(o)
                : step.axis != AxisKind::kOverlappingEnd ||
                      span.OverlapsLeft(o)) {
          if (restricted || PassesFilters(step, n)) return true;
        }
      }
      return false;
    }
  }
  for (NodeId n : scratch_) {
    if (restricted || PassesFilters(step, n)) return true;
  }
  return false;
}

Result<NodeSet> Evaluator::EvalStep(const Step& step, NodeSet input) {
  NodeSet result;
  for (const NodeEntry& ctx : input) {
    CXML_ASSIGN_OR_RETURN(NodeSet candidates, AxisNodes(step, ctx));
    if (IsReverseAxis(step.axis)) {
      std::reverse(candidates.begin(), candidates.end());
    }
    CXML_RETURN_IF_ERROR(FilterByPredicates(step.predicates,
                                            step.plan.predicates, 0,
                                            step.predicates.size(), &step,
                                            &candidates));
    result.insert(result.end(), candidates.begin(), candidates.end());
  }
  NormalizeSet(&result);
  return result;
}

Result<NodeSet> Evaluator::EvalDescendantChild(const Step& child,
                                               NodeSet input) {
  NodeSet result;
  const goddag::SnapshotIndex::Pool* pool = nullptr;
  bool from_document = false;
  for (const NodeEntry& ctx : input) {
    // descendant-or-self::node() selects nothing from an attribute, so
    // the child step never runs for one; resolving its hierarchy only
    // at the first other context errors exactly when the literal pair
    // would.
    if (ctx.is_attribute()) continue;
    if (pool == nullptr) {
      CXML_ASSIGN_OR_RETURN(HierarchyId hq, ResolveHierarchy(child.hierarchy));
      pool = &ElementPoolFor(hq, child.test);
    } else {
      stats_.pool_nodes += pool->size();  // ElementPoolFor tallied the first
    }
    ++stats_.indexed_axes;
    if (ctx.is_document()) {
      from_document = true;
      break;
    }
    scratch_.clear();
    index().ChildrenOfDominated(*pool, ctx.node, &scratch_);
    for (NodeId n : scratch_) result.push_back(NodeEntry::Of(n));
  }
  // Attribute-filter and existential predicates do not depend on
  // position: the leading ones run once over every candidate, and only
  // the survivors are regrouped.
  const size_t planned = LeadingPlanned(child);
  size_t answered = 0;  // leading predicates the pool side applied
  if (from_document) {
    // Every attached element is a child of the root or of another
    // element, all of which descend from the document node; the root
    // itself is the document node's child. Any other context's answer
    // is a subset of that.
    result.clear();
    const NodeId root = g_->root();
    const bool with_root = MatchesTest(child.test, NodeEntry::Of(root), false);
    const size_t candidates = pool->size() + (with_root ? 1 : 0);
    ExistsState* exists = nullptr;
    if (planned > 0 &&
        child.plan.predicates[0].kind == PredicatePlan::Kind::kExists &&
        candidates > 0) {
      CXML_ASSIGN_OR_RETURN(
          exists, ExistsStateFor(child.predicates[0]->path.steps.front()));
      CXML_RETURN_IF_ERROR(MarkFromSmallSide(exists, candidates, &child));
    }
    if (exists != nullptr && exists->marked == pool) {
      // The marked entries, in pool order, are the first predicate's
      // answer: the pool is never copied out as candidates.
      answered = 1;
      stats_.exists_preds += candidates;
      if (with_root && StepNonEmpty(exists, root)) {
        result.push_back(NodeEntry::Of(root));
      }
      for (NodeId n : pool->nodes) {
        if (exists->marks[n] == ExistsState::kHit) {
          result.push_back(NodeEntry::Of(n));
        }
      }
    } else {
      result.reserve(candidates);
      if (with_root) result.push_back(NodeEntry::Of(root));
      for (NodeId n : pool->nodes) result.push_back(NodeEntry::Of(n));
    }
  }
  NormalizeSet(&result);
  CXML_RETURN_IF_ERROR(FilterByPredicates(child.predicates,
                                          child.plan.predicates, answered,
                                          planned, &child, &result));
  if (planned == child.predicates.size()) return result;

  // XPath positions on a child step count among one parent's children.
  // Every child of a parent that qualified is in `result`, so stably
  // regrouping by parent (the root's is kInvalidNode) gives each
  // parent's full child list in document order.
  std::stable_sort(result.begin(), result.end(),
                   [this](const NodeEntry& a, const NodeEntry& b) {
                     return g_->parent(a.node) < g_->parent(b.node);
                   });
  NodeSet kept;
  for (size_t begin = 0; begin < result.size();) {
    const NodeId parent = g_->parent(result[begin].node);
    size_t end = begin + 1;
    while (end < result.size() && g_->parent(result[end].node) == parent) {
      ++end;
    }
    NodeSet siblings(result.begin() + static_cast<ptrdiff_t>(begin),
                     result.begin() + static_cast<ptrdiff_t>(end));
    CXML_RETURN_IF_ERROR(FilterByPredicates(child.predicates,
                                            child.plan.predicates, planned,
                                            child.predicates.size(), &child,
                                            &siblings));
    kept.insert(kept.end(), siblings.begin(), siblings.end());
    begin = end;
  }
  NormalizeSet(&kept);
  return kept;
}

Result<NodeSet> Evaluator::EvalSteps(const std::vector<Step>& steps,
                                     NodeSet current) {
  for (size_t i = 0; i < steps.size() && !current.empty(); ++i) {
    if (steps[i].plan.fuse_with_child && i + 1 < steps.size() &&
        strategy_ == AxisStrategy::kIndexed) {
      ++i;  // the child step is consumed with its descendant-or-self
      CXML_ASSIGN_OR_RETURN(current,
                            EvalDescendantChild(steps[i], std::move(current)));
    } else {
      CXML_ASSIGN_OR_RETURN(current, EvalStep(steps[i], std::move(current)));
    }
  }
  return current;
}

Result<Value> Evaluator::EvalFilter(const Expr& expr, const Context& ctx) {
  CXML_ASSIGN_OR_RETURN(Value primary, EvalExpr(*expr.children[0], ctx));
  if (expr.predicates.empty() && expr.path.steps.empty()) return primary;
  if (!primary.is_node_set()) {
    return status::InvalidArgument(
        "XPath: predicates/steps can only follow a node-set expression");
  }
  NodeSet nodes = std::move(primary.nodes());
  NormalizeSet(&nodes);
  CXML_RETURN_IF_ERROR(FilterByPredicates(expr.predicates, {}, 0,
                                          expr.predicates.size(), nullptr,
                                          &nodes));
  CXML_ASSIGN_OR_RETURN(nodes, EvalSteps(expr.path.steps, std::move(nodes)));
  return Value(std::move(nodes));
}

Result<Value> Evaluator::Compare(Expr::Kind op, const Value& lhs,
                                 const Value& rhs) {
  auto sv = [&](const NodeEntry& e) { return Value::StringValue(*g_, e); };
  const bool equality =
      op == Expr::Kind::kEquals || op == Expr::Kind::kNotEquals;
  auto num_cmp = [&](double a, double b) {
    switch (op) {
      case Expr::Kind::kEquals:
        return a == b;
      case Expr::Kind::kNotEquals:
        return a != b;
      case Expr::Kind::kLess:
        return a < b;
      case Expr::Kind::kLessEq:
        return a <= b;
      case Expr::Kind::kGreater:
        return a > b;
      case Expr::Kind::kGreaterEq:
        return a >= b;
      default:
        return false;
    }
  };
  auto str_cmp = [&](const std::string& a, const std::string& b) {
    return op == Expr::Kind::kEquals ? a == b : a != b;
  };
  auto other_is_boolean = [](const Value& v) {
    return v.type() == Value::Type::kBoolean;
  };

  if (lhs.is_node_set() && rhs.is_node_set()) {
    for (const NodeEntry& a : lhs.nodes()) {
      for (const NodeEntry& b : rhs.nodes()) {
        if (equality ? str_cmp(sv(a), sv(b))
                     : num_cmp(ParseXPathNumber(sv(a)),
                               ParseXPathNumber(sv(b)))) {
          return Value(true);
        }
      }
    }
    return Value(false);
  }
  if (lhs.is_node_set() || rhs.is_node_set()) {
    const Value& set = lhs.is_node_set() ? lhs : rhs;
    const Value& other = lhs.is_node_set() ? rhs : lhs;
    const bool set_on_left = lhs.is_node_set();
    // XPath 1.0 §3.4: a node-set compared with a boolean compares
    // boolean(node-set) with it, for every operator; <, <=, > and >=
    // then compare the two booleans as numbers.
    if (other_is_boolean(other)) {
      const double a = set.ToBoolean() ? 1.0 : 0.0;
      const double b = other.ToBoolean() ? 1.0 : 0.0;
      return Value(set_on_left ? num_cmp(a, b) : num_cmp(b, a));
    }
    for (const NodeEntry& e : set.nodes()) {
      bool match;
      if (equality) {
        if (other.type() == Value::Type::kNumber) {
          match = num_cmp(ParseXPathNumber(sv(e)), other.ToNumber(*g_));
        } else {
          match = str_cmp(sv(e), other.ToString(*g_));
        }
      } else {
        double a = ParseXPathNumber(sv(e));
        double b = other.ToNumber(*g_);
        match = set_on_left ? num_cmp(a, b) : num_cmp(b, a);
      }
      if (match) return Value(true);
    }
    return Value(false);
  }
  // Neither is a node-set.
  if (equality) {
    if (lhs.type() == Value::Type::kBoolean ||
        rhs.type() == Value::Type::kBoolean) {
      bool eq = lhs.ToBoolean() == rhs.ToBoolean();
      return Value(op == Expr::Kind::kEquals ? eq : !eq);
    }
    if (lhs.type() == Value::Type::kNumber ||
        rhs.type() == Value::Type::kNumber) {
      return Value(num_cmp(lhs.ToNumber(*g_), rhs.ToNumber(*g_)));
    }
    return Value(str_cmp(lhs.ToString(*g_), rhs.ToString(*g_)));
  }
  return Value(num_cmp(lhs.ToNumber(*g_), rhs.ToNumber(*g_)));
}

Result<Value> Evaluator::EvalExpr(const Expr& expr, const Context& ctx) {
  switch (expr.kind) {
    case Expr::Kind::kOr: {
      CXML_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.children[0], ctx));
      if (lhs.ToBoolean()) return Value(true);
      CXML_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.children[1], ctx));
      return Value(rhs.ToBoolean());
    }
    case Expr::Kind::kAnd: {
      CXML_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.children[0], ctx));
      if (!lhs.ToBoolean()) return Value(false);
      CXML_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.children[1], ctx));
      return Value(rhs.ToBoolean());
    }
    case Expr::Kind::kEquals:
    case Expr::Kind::kNotEquals:
    case Expr::Kind::kLess:
    case Expr::Kind::kLessEq:
    case Expr::Kind::kGreater:
    case Expr::Kind::kGreaterEq: {
      CXML_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.children[0], ctx));
      CXML_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.children[1], ctx));
      return Compare(expr.kind, lhs, rhs);
    }
    case Expr::Kind::kAdd:
    case Expr::Kind::kSubtract:
    case Expr::Kind::kMultiply:
    case Expr::Kind::kDivide:
    case Expr::Kind::kModulo: {
      CXML_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.children[0], ctx));
      CXML_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.children[1], ctx));
      double a = lhs.ToNumber(*g_);
      double b = rhs.ToNumber(*g_);
      switch (expr.kind) {
        case Expr::Kind::kAdd:
          return Value(a + b);
        case Expr::Kind::kSubtract:
          return Value(a - b);
        case Expr::Kind::kMultiply:
          return Value(a * b);
        case Expr::Kind::kDivide:
          return Value(a / b);
        default:
          return Value(std::fmod(a, b));
      }
    }
    case Expr::Kind::kNegate: {
      CXML_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.children[0], ctx));
      return Value(-v.ToNumber(*g_));
    }
    case Expr::Kind::kUnion: {
      CXML_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.children[0], ctx));
      CXML_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.children[1], ctx));
      if (!lhs.is_node_set() || !rhs.is_node_set()) {
        return status::InvalidArgument(
            "XPath: '|' requires node-set operands");
      }
      NodeSet merged = std::move(lhs.nodes());
      merged.insert(merged.end(), rhs.nodes().begin(), rhs.nodes().end());
      NormalizeSet(&merged);
      return Value(std::move(merged));
    }
    case Expr::Kind::kPath: {
      NodeSet start(1, expr.path.absolute ? NodeEntry::Document() : ctx.node);
      CXML_ASSIGN_OR_RETURN(NodeSet nodes,
                            EvalSteps(expr.path.steps, std::move(start)));
      return Value(std::move(nodes));
    }
    case Expr::Kind::kFilter:
      return EvalFilter(expr, ctx);
    case Expr::Kind::kLiteral:
      return Value(expr.string_value);
    case Expr::Kind::kNumber:
      return Value(expr.number_value);
    case Expr::Kind::kFunction:
      return CallFunction(expr, ctx);
    case Expr::Kind::kVariable: {
      auto it = variables_.find(expr.string_value);
      if (it == variables_.end()) {
        return status::NotFound(
            StrCat("XPath: unbound variable $", expr.string_value));
      }
      return it->second;
    }
  }
  return status::Internal("XPath: unhandled expression kind");
}

}  // namespace cxml::xpath
