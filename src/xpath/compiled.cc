#include "xpath/compiled.h"

#include <algorithm>

#include "xpath/parser.h"

namespace cxml::xpath {

uint64_t CanonicalHash(std::string_view canonical) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

namespace {

/// True when the axis runs on SnapshotIndex (hierarchy, tag) pools —
/// the global axes the index accelerates.
bool AxisUsesPools(AxisKind axis) {
  switch (axis) {
    case AxisKind::kDescendant:
    case AxisKind::kDescendantOrSelf:
    case AxisKind::kAncestor:
    case AxisKind::kAncestorOrSelf:
    case AxisKind::kFollowing:
    case AxisKind::kPreceding:
    case AxisKind::kOverlapping:
    case AxisKind::kOverlappingStart:
    case AxisKind::kOverlappingEnd:
      return true;
    default:
      return false;
  }
}

/// Classifies a step's leading predicate as a pushable positional
/// selection: exactly the literal `1` or the bare `last()` call.
StepPlan::Positional LeadingPositional(const Step& step) {
  if (step.predicates.empty()) return StepPlan::Positional::kNone;
  const Expr& pred = *step.predicates.front();
  if (pred.kind == Expr::Kind::kNumber && pred.number_value == 1.0) {
    return StepPlan::Positional::kFirst;
  }
  if (pred.kind == Expr::Kind::kFunction && pred.string_value == "last" &&
      pred.children.empty()) {
    return StepPlan::Positional::kLast;
  }
  return StepPlan::Positional::kNone;
}

/// True for the `//T` step pair the evaluator answers as one pool scan
/// (StepPlan::fuse_with_child): a bare descendant-or-self::node()
/// followed by a child step testing a name or `*`.
bool FusesWithChild(const Step& step, const Step& next) {
  return step.axis == AxisKind::kDescendantOrSelf &&
         step.hierarchy.empty() && step.test.kind == NodeTest::Kind::kNode &&
         step.predicates.empty() && next.axis == AxisKind::kChild &&
         (next.test.kind == NodeTest::Kind::kName ||
          next.test.kind == NodeTest::Kind::kAnyName);
}

struct Analysis {
  std::vector<std::string>* hierarchies;
  std::vector<std::string>* tags;
};

void AnalyzeExpr(Expr* expr, const Analysis& a);

void AnalyzePath(LocationPath* path, const Analysis& a) {
  for (size_t i = 0; i < path->steps.size(); ++i) {
    Step& step = path->steps[i];
    step.plan.fuse_with_child =
        i + 1 < path->steps.size() && FusesWithChild(step, path->steps[i + 1]);
    step.plan.uses_pools = AxisUsesPools(step.axis);
    step.plan.index_friendly = step.plan.uses_pools;
    // Positional pushdown is defined for the forward containment steps
    // only: descendant selects from a pool window in document order,
    // child from the (small) children list. [1]/[last()] elsewhere
    // still evaluate the ordinary way.
    if (step.axis == AxisKind::kDescendant ||
        step.axis == AxisKind::kChild) {
      step.plan.positional = LeadingPositional(step);
    }
    if (a.hierarchies != nullptr && !step.hierarchy.empty()) {
      a.hierarchies->push_back(step.hierarchy);
    }
    if (a.tags != nullptr && step.test.kind == NodeTest::Kind::kName) {
      a.tags->push_back(step.test.name);
    }
    for (ExprPtr& pred : step.predicates) AnalyzeExpr(pred.get(), a);
  }
}

void AnalyzeExpr(Expr* expr, const Analysis& a) {
  if (expr == nullptr) return;
  for (ExprPtr& child : expr->children) AnalyzeExpr(child.get(), a);
  for (ExprPtr& pred : expr->predicates) AnalyzeExpr(pred.get(), a);
  AnalyzePath(&expr->path, a);
}

void SortUnique(std::vector<std::string>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

void AnalyzeQuery(Expr* expr, std::vector<std::string>* hierarchies,
                  std::vector<std::string>* tags) {
  AnalyzeExpr(expr, Analysis{hierarchies, tags});
  if (hierarchies != nullptr) SortUnique(hierarchies);
  if (tags != nullptr) SortUnique(tags);
}

Result<CompiledQueryPtr> Compile(std::string_view expression) {
  CXML_ASSIGN_OR_RETURN(ExprPtr parsed, ParseXPath(expression));
  auto compiled = std::shared_ptr<CompiledQuery>(new CompiledQuery());
  compiled->text_ = std::string(expression);
  AnalyzeQuery(parsed.get(), &compiled->hierarchies_, &compiled->tags_);
  compiled->canonical_ = ToString(*parsed);
  compiled->hash_ = CanonicalHash(compiled->canonical_);
  compiled->expr_ = std::move(parsed);
  return CompiledQueryPtr(std::move(compiled));
}

}  // namespace cxml::xpath
