#include "xpath/compiled.h"

#include <algorithm>

#include "xpath/parser.h"
#include "xpath/value.h"

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

/// The attribute name of a bare `@a`: one relative attribute-axis step
/// with a name test and no qualifier or predicates (a qualifier could
/// name an unknown hierarchy, which must still error). nullptr
/// otherwise.
const std::string* BareAttribute(const Expr& e) {
  if (e.kind != Expr::Kind::kPath || e.path.absolute ||
      e.path.steps.size() != 1) {
    return nullptr;
  }
  const Step& step = e.path.steps.front();
  if (step.axis != AxisKind::kAttribute || !step.hierarchy.empty() ||
      step.test.kind != NodeTest::Kind::kName || !step.predicates.empty()) {
    return nullptr;
  }
  return &step.test.name;
}

/// The comparison operator of `kind`, mirrored when the attribute is on
/// the right (`5 < @n` tests `@n > 5`); false for other kinds.
bool CompareOp(Expr::Kind kind, bool mirrored, AttrFilter::Op* op) {
  using Op = AttrFilter::Op;
  switch (kind) {
    case Expr::Kind::kEquals:
      *op = Op::kEq;
      return true;
    case Expr::Kind::kNotEquals:
      *op = Op::kNe;
      return true;
    case Expr::Kind::kLess:
      *op = mirrored ? Op::kGt : Op::kLt;
      return true;
    case Expr::Kind::kLessEq:
      *op = mirrored ? Op::kGe : Op::kLe;
      return true;
    case Expr::Kind::kGreater:
      *op = mirrored ? Op::kLt : Op::kGt;
      return true;
    case Expr::Kind::kGreaterEq:
      *op = mirrored ? Op::kLe : Op::kGe;
      return true;
    default:
      return false;
  }
}

/// Compiles `e` as an attribute filter (AttrFilter in ast.h); false when
/// it is anything else, which then stays on the generic loop.
bool CompileAttrFilter(const Expr& e, AttrFilter* out) {
  switch (e.kind) {
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      out->kind = e.kind == Expr::Kind::kAnd ? AttrFilter::Kind::kAnd
                                             : AttrFilter::Kind::kOr;
      out->operands.resize(2);
      return CompileAttrFilter(*e.children[0], &out->operands[0]) &&
             CompileAttrFilter(*e.children[1], &out->operands[1]);
    case Expr::Kind::kFunction:
      if (e.string_value != "not" || e.children.size() != 1) return false;
      out->kind = AttrFilter::Kind::kNot;
      out->operands.resize(1);
      return CompileAttrFilter(*e.children[0], &out->operands[0]);
    case Expr::Kind::kPath: {
      const std::string* name = BareAttribute(e);
      if (name == nullptr) return false;
      out->kind = AttrFilter::Kind::kExists;
      out->name = *name;
      return true;
    }
    default:
      break;
  }
  if (e.children.size() != 2) return false;
  const bool mirrored = BareAttribute(*e.children[0]) == nullptr;
  const std::string* name = BareAttribute(*e.children[mirrored ? 1 : 0]);
  const Expr& literal = *e.children[mirrored ? 0 : 1];
  if (name == nullptr || !CompareOp(e.kind, mirrored, &out->op)) return false;
  out->kind = AttrFilter::Kind::kCompare;
  out->name = *name;
  if (literal.kind == Expr::Kind::kNumber) {
    out->number = literal.number_value;
  } else if (literal.kind == Expr::Kind::kLiteral) {
    out->by_string =
        out->op == AttrFilter::Op::kEq || out->op == AttrFilter::Op::kNe;
    out->text = literal.string_value;
    out->number = ParseXPathNumber(literal.string_value);
  } else {
    return false;
  }
  return true;
}

/// Classifies one step predicate (PredicatePlan in ast.h).
PredicatePlan PlanPredicate(const Expr& pred) {
  PredicatePlan plan;
  if (CompileAttrFilter(pred, &plan.filter)) {
    plan.kind = PredicatePlan::Kind::kAttributeFilter;
    return plan;
  }
  plan.filter = AttrFilter();
  if (pred.kind != Expr::Kind::kPath || pred.path.absolute ||
      pred.path.steps.size() != 1) {
    return plan;
  }
  const Step& step = pred.path.steps.front();
  if (!AxisUsesPools(step.axis) ||
      (step.test.kind != NodeTest::Kind::kName &&
       step.test.kind != NodeTest::Kind::kAnyName)) {
    return plan;
  }
  for (const ExprPtr& inner : step.predicates) {
    AttrFilter unused;
    if (!CompileAttrFilter(*inner, &unused)) return plan;
  }
  plan.kind = PredicatePlan::Kind::kExists;
  return plan;
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
    step.plan.predicates.clear();
    for (const ExprPtr& pred : step.predicates) {
      step.plan.predicates.push_back(PlanPredicate(*pred));
    }
    if (std::all_of(step.plan.predicates.begin(), step.plan.predicates.end(),
                    [](const PredicatePlan& p) {
                      return p.kind == PredicatePlan::Kind::kGeneric;
                    })) {
      step.plan.predicates.clear();
    }
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
