#ifndef CXML_XPATH_AST_H_
#define CXML_XPATH_AST_H_

#include <memory>
#include <string>
#include <vector>

namespace cxml::xpath {

/// Axes of the Extended XPath (paper §4 / TR 394-04): the 12 XPath 1.0
/// tree axes reinterpreted over the GODDAG, plus the `overlapping` family
/// that only makes sense with concurrent markup.
enum class AxisKind {
  kChild,
  kDescendant,
  kParent,
  kAncestor,
  kFollowingSibling,
  kPrecedingSibling,
  kFollowing,
  kPreceding,
  kAttribute,
  kSelf,
  kDescendantOrSelf,
  kAncestorOrSelf,
  // --- concurrent-markup extensions ---
  /// Elements whose extent properly overlaps the context node's.
  kOverlapping,
  /// Overlapping elements that *start inside* the context node
  /// (ctx.begin < n.begin < ctx.end < n.end).
  kOverlappingStart,
  /// Overlapping elements that *end inside* the context node
  /// (n.begin < ctx.begin < n.end < ctx.end).
  kOverlappingEnd,
};

const char* AxisKindToString(AxisKind axis);

/// True for axes whose proximity position counts backwards in document
/// order (XPath 1.0 §2.4).
bool IsReverseAxis(AxisKind axis);

/// Node test of a step.
struct NodeTest {
  enum class Kind {
    kName,     ///< element (or attribute) name
    kAnyName,  ///< *
    kText,     ///< text() — GODDAG leaves
    kNode,     ///< node() — any node
  };
  Kind kind = Kind::kAnyName;
  std::string name;
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// A step predicate compiled to a test of the candidate element's own
/// attributes: `@a op literal` (op one of = != < <= > >=, the literal a
/// string or a number on either side), a bare `@a`, and `and`/`or`/
/// `not()` of these. Checked against Goddag::attributes without
/// building a Value, a NodeSet or a string. XPath 1.0 §3.4 gives the
/// rules: `=`/`!=` against a string literal compare strings, every
/// other comparison compares numbers, and a comparison is true when
/// some attribute named `name` satisfies it, so a missing attribute
/// makes every comparison false.
struct AttrFilter {
  enum class Kind : uint8_t { kExists, kCompare, kAnd, kOr, kNot };
  /// The comparison with the attribute on the left: `5 < @n` is
  /// compiled as `@n > 5`.
  enum class Op : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

  Kind kind = Kind::kExists;
  /// kExists / kCompare: the attribute name.
  std::string name;
  Op op = Op::kEq;
  /// kCompare: string comparison against `text` (= and != with a string
  /// literal); otherwise number(value) is compared with `number`.
  bool by_string = false;
  std::string text;
  double number = 0;
  /// kAnd / kOr: two operands; kNot: one.
  std::vector<AttrFilter> operands;
};

/// How the indexed evaluator answers one step predicate. kNaiveScan
/// ignores plans and stays the literal oracle.
struct PredicatePlan {
  enum class Kind : uint8_t {
    /// Evaluated per candidate through the generic expression loop:
    /// positional and numeric predicates, boolean operands, variables,
    /// functions, multi-step paths.
    kGeneric,
    /// `filter` is checked on the candidate (AttrFilter).
    kAttributeFilter,
    /// A one-step relative path `axis(h)::T[f]...` with a pool-backed
    /// axis, T a name or `*`, and only attribute filters as its own
    /// predicates: true when the filtered axis window is non-empty,
    /// answered from the SnapshotIndex collector with no NodeSet.
    kExists,
  };
  Kind kind = Kind::kGeneric;
  AttrFilter filter;
};

/// Static per-step plan, filled in by xpath::Compile's analysis pass
/// (compiled.h) after parsing. Default-constructed steps carry no plan
/// and evaluate exactly as before — the plan only ever *narrows* work
/// the evaluator would do anyway, so plan-less and planned evaluation
/// are equivalent by construction.
struct StepPlan {
  /// A leading positional predicate the indexed evaluator may push
  /// into the SnapshotIndex pool scan instead of materialising the
  /// full axis window first (descendant/child steps only).
  enum class Positional : uint8_t { kNone, kFirst, kLast };
  Positional positional = Positional::kNone;
  /// Set on a bare `descendant-or-self::node()` step (no hierarchy
  /// qualifier, no predicates) whose next step is `child::T` with T a
  /// name or `*` — the `//T` abbreviation. In a GODDAG that pair
  /// selects the T children of the context or of any node the context
  /// dominates, which is not the extent-based descendant axis (a `w`
  /// inside a `line` extent is the child of an `s`, not of the line).
  /// Under AxisStrategy::kIndexed the evaluator answers the pair as one
  /// scan of the (hierarchy, T) pool — SnapshotIndex::ChildrenOfDominated
  /// — instead of materialising every node below the context and
  /// walking each one's children. node()/text() tests stay unfused:
  /// a leaf has one parent per hierarchy.
  bool fuse_with_child = false;
  /// One plan per Step::predicates entry (empty: all generic). Attribute
  /// filters and existential steps do not depend on the candidate's
  /// position, so under AxisStrategy::kIndexed they run without
  /// EvalExpr on element and root candidates; attribute, document and
  /// leaf candidates take the generic loop, whose answer for these
  /// predicates is the same.
  std::vector<PredicatePlan> predicates;
};

/// One location step: axis(hierarchy)::test[pred]...
/// `hierarchy` is the paper's hierarchy qualifier; empty = all
/// hierarchies (the whole GODDAG).
struct Step {
  AxisKind axis = AxisKind::kChild;
  std::string hierarchy;
  NodeTest test;
  std::vector<ExprPtr> predicates;
  /// Filled by xpath::Compile (see StepPlan); inert when defaulted.
  StepPlan plan;
};

/// A location path.
struct LocationPath {
  bool absolute = false;
  std::vector<Step> steps;
};

/// Expression node. A tagged union kept simple and explicit (one struct,
/// unused fields empty) — the evaluator switches on `kind`.
struct Expr {
  enum class Kind {
    kOr,
    kAnd,
    kEquals,
    kNotEquals,
    kLess,
    kLessEq,
    kGreater,
    kGreaterEq,
    kAdd,
    kSubtract,
    kMultiply,
    kDivide,
    kModulo,
    kNegate,
    kUnion,
    kPath,        ///< a LocationPath
    kFilter,      ///< primary expr + predicates (+ optional trailing path)
    kLiteral,     ///< string literal
    kNumber,      ///< numeric literal
    kFunction,    ///< function call
    kVariable,    ///< $name
  };

  Kind kind;
  // kLiteral / kFunction / kVariable
  std::string string_value;
  // kNumber
  double number_value = 0;
  // Binary operands / kNegate child / kFunction args.
  std::vector<ExprPtr> children;
  // kPath; also the trailing path of kFilter (may be empty).
  LocationPath path;
  // kFilter predicates.
  std::vector<ExprPtr> predicates;

  explicit Expr(Kind k) : kind(k) {}

  static ExprPtr Binary(Kind k, ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_unique<Expr>(k);
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(rhs));
    return e;
  }
};

/// Debug rendering of an expression (stable, used in tests).
std::string ToString(const Expr& expr);
std::string ToString(const LocationPath& path);

}  // namespace cxml::xpath

#endif  // CXML_XPATH_AST_H_
