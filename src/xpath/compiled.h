#ifndef CXML_XPATH_COMPILED_H_
#define CXML_XPATH_COMPILED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xpath/ast.h"

namespace cxml::xpath {

/// Stable 64-bit FNV-1a over a canonical query rendering — what the
/// service cache keys on. The canonical text always rides along in the
/// key, so a hash collision costs one extra string compare, never a
/// wrong result.
uint64_t CanonicalHash(std::string_view canonical);

/// A compiled Extended XPath query: parse + static analysis done once,
/// evaluated many times (compile-once/bind-many). The object is
/// immutable after Compile and document-independent, so one handle is
/// safely shared across threads, documents, and connections; only
/// *evaluation* needs an engine (one per thread or request).
///
/// The analysis annotates every location step with a StepPlan (ast.h):
/// whether the step's axis runs on SnapshotIndex pools, whether the
/// index can help it at all, and whether a leading positional
/// predicate ([1] / [last()]) can be pushed into the pool scan. It
/// also records the query-level facts a cache or planner wants without
/// re-walking the AST: the canonical text (an AST re-rendering, so
/// whitespace and abbreviation variants of one query collapse to one
/// identity), its hash, and the referenced hierarchy qualifiers and
/// element tags.
class CompiledQuery {
 public:
  /// The expression text as given to Compile.
  const std::string& text() const { return text_; }
  /// Canonical AST rendering — the cache identity.
  const std::string& canonical() const { return canonical_; }
  uint64_t canonical_hash() const { return hash_; }
  /// Hierarchy qualifiers referenced anywhere in the query, sorted and
  /// deduplicated (names as written; resolution is per-document).
  const std::vector<std::string>& hierarchies() const {
    return hierarchies_;
  }
  /// Element/attribute name tests referenced anywhere, sorted and
  /// deduplicated.
  const std::vector<std::string>& tags() const { return tags_; }
  /// The analyzed AST (every Step carries its StepPlan).
  const Expr& expr() const { return *expr_; }

 private:
  friend Result<std::shared_ptr<const CompiledQuery>> Compile(
      std::string_view expression);

  CompiledQuery() = default;

  std::string text_;
  std::string canonical_;
  uint64_t hash_ = 0;
  std::vector<std::string> hierarchies_;
  std::vector<std::string> tags_;
  ExprPtr expr_;
};

using CompiledQueryPtr = std::shared_ptr<const CompiledQuery>;

/// Parses and analyzes an expression. Document-independent: unknown
/// hierarchies or tags only surface at evaluation time, exactly as on
/// the string path.
Result<CompiledQueryPtr> Compile(std::string_view expression);

/// The analysis pass alone: annotates every Step's plan in place and
/// optionally collects the referenced hierarchies/tags (pass nullptr
/// to skip). Exposed for the XQuery compiler, which parses embedded
/// expressions itself and wants the same plans on them.
void AnalyzeQuery(Expr* expr, std::vector<std::string>* hierarchies,
                  std::vector<std::string>* tags);

}  // namespace cxml::xpath

#endif  // CXML_XPATH_COMPILED_H_
