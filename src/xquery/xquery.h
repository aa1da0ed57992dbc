#ifndef CXML_XQUERY_XQUERY_H_
#define CXML_XQUERY_XQUERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "goddag/goddag.h"
#include "xpath/compiled.h"
#include "xpath/evaluator.h"

namespace cxml::xquery {

class CompiledQuery;
using CompiledQueryPtr = std::shared_ptr<const CompiledQuery>;

/// Parses and analyzes a query (FLWOR or bare Extended XPath) into an
/// immutable, document-independent compiled form: clause structure and
/// every embedded Extended XPath expression parsed once, with the same
/// static step analysis xpath::Compile applies (so compiled FLWOR
/// bodies get positional pushdown too). Document-independent — unknown
/// hierarchies/tags surface at run time, exactly as on the string
/// path.
Result<CompiledQueryPtr> Compile(std::string_view query);

/// A compiled XQuery — the compile-once/bind-many handle mirroring
/// xpath::CompiledQuery. Immutable after Compile, safe to share across
/// threads, documents and connections; running it requires an engine.
class CompiledQuery {
 public:
  ~CompiledQuery();

  /// The query text as given to Compile.
  const std::string& text() const { return text_; }
  /// Canonical re-rendering of the parsed clauses (embedded
  /// expressions via their AST form) — the cache identity shared by
  /// every textual variant of one query.
  const std::string& canonical() const { return canonical_; }
  uint64_t canonical_hash() const { return hash_; }
  /// True for FLWOR queries; false for bare Extended XPath.
  bool is_flwor() const { return impl_ != nullptr; }

  /// The compiled FLWOR clause structure — opaque outside xquery.cc.
  struct Impl;

 private:
  friend class XQueryEngine;
  friend Result<CompiledQueryPtr> Compile(std::string_view query);

  CompiledQuery();

  std::string text_;
  std::string canonical_;
  uint64_t hash_ = 0;
  /// Bare-expression queries compile straight to the XPath form.
  xpath::CompiledQueryPtr bare_;
  /// FLWOR clause structure (xquery.cc); null for bare expressions.
  std::unique_ptr<const Impl> impl_;
};

/// The paper's "XQuery extension ... under development" (§3), realised
/// as a FLWOR engine over the Extended XPath:
///
///   for $w in //w[overlapping::line]
///   let $deg := overlap-degree($w)
///   where $deg > 1
///   return <crossing word="{string($w)}" degree="{$deg}"/>
///
/// Supported grammar (one FLWOR block or a bare Extended XPath
/// expression):
///   query   ::= flwor | Expr
///   flwor   ::= (for | let)+ where? order? 'return' constructor
///   for     ::= 'for' '$'name 'in' Expr
///   let     ::= 'let' '$'name ':=' Expr
///   where   ::= 'where' Expr
///   order   ::= 'order' 'by' Expr ('descending')?
///   constructor ::= direct element with embedded '{Expr}' in attribute
///                   values and content, or '{Expr}', or Expr
///
/// Every embedded expression is full Extended XPath (overlapping axes,
/// hierarchy qualifiers, extension functions, $variables).
///
/// Like xpath::XPathEngine, the engine is cheap to build and not
/// thread-safe — one per thread or per request, sharing an immutable
/// goddag::SnapshotIndex — and its string Run compiles on every call.
/// A Run's for/let bindings last for that Run only: external variables
/// (SetVariable) are all a later Run sees.
class XQueryEngine {
 public:
  /// `g` must outlive the engine.
  explicit XQueryEngine(const goddag::Goddag& g) : g_(&g), evaluator_(g) {}

  /// Compiles a query; identical to the free xquery::Compile.
  static Result<CompiledQueryPtr> Prepare(std::string_view query) {
    return Compile(query);
  }

  /// Runs a query; returns the items in order. Node items are rendered
  /// as their serialised markup-free string-value; constructed elements
  /// as XML text.
  Result<std::vector<std::string>> Run(std::string_view query);
  Result<std::vector<std::string>> Run(const CompiledQuery& query);

  /// Convenience: items joined by newlines.
  Result<std::string> RunToString(std::string_view query);

  /// Binds an external variable visible to all queries.
  void SetVariable(const std::string& name, xpath::Value value) {
    evaluator_.SetVariable(name, std::move(value));
  }

  /// Adopts a prebuilt goddag::SnapshotIndex for the embedded Extended
  /// XPath evaluator (see XPathEngine::UseSnapshotIndex).
  void UseSnapshotIndex(
      std::shared_ptr<const goddag::SnapshotIndex> index) {
    evaluator_.SetSnapshotIndex(std::move(index));
  }

  /// Selects the embedded evaluator's axis strategy (the naive path is
  /// the equivalence oracle for the indexed one).
  void SetAxisStrategy(xpath::AxisStrategy strategy) {
    evaluator_.SetAxisStrategy(strategy);
  }

  /// Toggles the embedded evaluator's positional pushdown.
  void SetPositionalPushdown(bool enabled) {
    evaluator_.SetPositionalPushdown(enabled);
  }

  /// Axis-strategy tallies of the embedded evaluator (see
  /// xpath::AxisStats); every path expression a query runs accumulates
  /// here until the next reset.
  const xpath::AxisStats& axis_stats() const {
    return evaluator_.axis_stats();
  }
  void ResetAxisStats() { evaluator_.ResetAxisStats(); }

 private:
  const goddag::Goddag* g_;
  xpath::Evaluator evaluator_;
};

}  // namespace cxml::xquery

#endif  // CXML_XQUERY_XQUERY_H_
