#ifndef CXML_XPATH_ENGINE_H_
#define CXML_XPATH_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "xpath/compiled.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace cxml::xpath {

/// Facade over parser + evaluator — the "Extended XPath engine" a
/// framework user touches (paper §4: "an efficient implementation of
/// the Extended XPath").
///
/// The query API is compile-once/bind-many: `Prepare` (or the free
/// `xpath::Compile`) turns an expression into an immutable, document-
/// independent CompiledQuery once, and the Evaluate* overloads taking
/// the compiled form run it without any per-call parse or hash work.
/// The string overloads compile on every call; a caller that repeats
/// an expression keeps its compiled form (the service's prepared-handle
/// cache is the one parse cache).
///
/// An engine is cheap to build — a GODDAG pointer, an optional shared
/// index, variable bindings and scratch space — and is not thread-safe:
/// use one per thread or per request, sharing the immutable
/// goddag::SnapshotIndex (UseSnapshotIndex) and compiled queries
/// across them.
class XPathEngine {
 public:
  /// `g` must outlive the engine.
  explicit XPathEngine(const goddag::Goddag& g) : g_(&g), evaluator_(g) {}

  /// Compiles an expression for this engine's dialect. Document-
  /// independent and stateless — provided on the engine for symmetry
  /// with the service API; identical to the free xpath::Compile.
  static Result<CompiledQueryPtr> Prepare(std::string_view expression) {
    return Compile(expression);
  }

  /// Evaluates against the document node.
  Result<Value> Evaluate(std::string_view expression);
  Result<Value> Evaluate(const CompiledQuery& query) {
    return evaluator_.Evaluate(query.expr());
  }
  /// Evaluates with an explicit context node.
  Result<Value> EvaluateFrom(std::string_view expression,
                             goddag::NodeId context);
  Result<Value> EvaluateFrom(const CompiledQuery& query,
                             goddag::NodeId context) {
    return evaluator_.Evaluate(query.expr(), NodeEntry::Of(context));
  }

  /// Convenience: evaluates and requires a node-set; returns the GODDAG
  /// nodes (attribute entries resolve to their owning node).
  Result<std::vector<goddag::NodeId>> SelectNodes(
      std::string_view expression);

  /// Evaluates and renders the value for transport: a node-set becomes
  /// one string-value per entry (document order), a scalar one item.
  /// NodeIds never cross this boundary, so results stay meaningful after
  /// the snapshot that produced them is gone — the representation the
  /// service layer caches.
  Result<std::vector<std::string>> EvaluateToStrings(
      std::string_view expression);
  Result<std::vector<std::string>> EvaluateToStrings(
      const CompiledQuery& query);

  /// Binds $name for subsequent evaluations.
  void SetVariable(const std::string& name, Value value) {
    evaluator_.SetVariable(name, std::move(value));
  }

  /// Adopts a prebuilt goddag::SnapshotIndex shared across engines
  /// over the same immutable GODDAG (the index is read-only, so
  /// sharing is thread-safe even though each engine is not).
  void UseSnapshotIndex(
      std::shared_ptr<const goddag::SnapshotIndex> index) {
    evaluator_.SetSnapshotIndex(std::move(index));
  }

  /// Selects indexed vs naive-scan axes (see xpath::AxisStrategy); the
  /// naive path is the equivalence oracle for the indexed one.
  void SetAxisStrategy(AxisStrategy strategy) {
    evaluator_.SetAxisStrategy(strategy);
  }

  /// Enables/disables pushing compiled positional predicates into the
  /// SnapshotIndex pool scans (on by default; the off position is the
  /// window-materialising oracle the benches compare against).
  void SetPositionalPushdown(bool enabled) {
    evaluator_.SetPositionalPushdown(enabled);
  }

  /// Call after mutating the GODDAG: clears evaluator indexes.
  void InvalidateIndexes() { evaluator_.Reset(); }

  /// Axis-strategy tallies since construction or the last reset (see
  /// xpath::AxisStats); a per-request engine reads them as that one
  /// query's strategy choices.
  const AxisStats& axis_stats() const { return evaluator_.axis_stats(); }
  void ResetAxisStats() { evaluator_.ResetAxisStats(); }

 private:
  const goddag::Goddag* g_;
  Evaluator evaluator_;
};

}  // namespace cxml::xpath

#endif  // CXML_XPATH_ENGINE_H_
