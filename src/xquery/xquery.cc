#include "xquery/xquery.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <utility>

#include "common/strings.h"
#include "xpath/parser.h"
#include "xpath/value.h"

namespace cxml::xquery {

/// The compiled FLWOR clause structure: bindings, filters and a
/// constructor template of literal chunks interleaved with embedded
/// Extended XPath expressions (the contents of `{...}`). Every ExprPtr
/// went through xpath::AnalyzeQuery, so compiled FLWOR bodies carry
/// the same per-step plans (positional pushdown etc.) as compiled
/// XPath.
struct CompiledQuery::Impl {
  struct Segment {
    std::string literal;
    xpath::ExprPtr expr;  // non-null for expression segments
  };
  /// One for/let binding.
  struct Binding {
    bool is_for = false;
    std::string var;
    xpath::ExprPtr expr;
  };

  std::vector<Binding> bindings;
  xpath::ExprPtr where;
  xpath::ExprPtr order_by;
  bool order_descending = false;
  std::vector<Segment> segments;
  /// True when the constructor was a bare expression (no literal text):
  /// node-set items then render one per node.
  bool bare_expression = false;
};

CompiledQuery::CompiledQuery() = default;
CompiledQuery::~CompiledQuery() = default;

namespace {

using xpath::Value;
using Impl = CompiledQuery::Impl;

bool IsSpaceChar(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

std::string_view Trim(std::string_view s) { return StripWhitespace(s); }

/// Parses an embedded Extended XPath expression and runs the compile
/// analysis over it, so steps carry their plans.
Result<xpath::ExprPtr> CompileEmbedded(std::string_view text) {
  CXML_ASSIGN_OR_RETURN(xpath::ExprPtr expr, xpath::ParseXPath(text));
  xpath::AnalyzeQuery(expr.get(), nullptr, nullptr);
  return expr;
}

/// Scans for the next top-level occurrence of one of the clause keywords
/// starting at or after `from`; respects quotes and bracket depth.
/// Returns npos when none. Keywords must be delimited by whitespace.
size_t FindClauseKeyword(std::string_view s, size_t from,
                         std::string_view* keyword) {
  static constexpr std::string_view kKeywords[] = {"for", "let", "where",
                                                   "order", "return"};
  int depth = 0;
  char quote = '\0';
  for (size_t i = from; i < s.size(); ++i) {
    char c = s[i];
    if (quote != '\0') {
      if (c == quote) quote = '\0';
      continue;
    }
    switch (c) {
      case '\'':
      case '"':
        quote = c;
        continue;
      case '(':
      case '[':
      case '{':
        ++depth;
        continue;
      case ')':
      case ']':
      case '}':
        --depth;
        continue;
      default:
        break;
    }
    if (depth != 0) continue;
    if (i > from && !IsSpaceChar(s[i - 1])) continue;
    for (std::string_view kw : kKeywords) {
      if (s.substr(i, kw.size()) == kw &&
          (i + kw.size() == s.size() || IsSpaceChar(s[i + kw.size()]))) {
        *keyword = kw;
        return i;
      }
    }
  }
  return std::string_view::npos;
}

/// Splits a constructor body into literal / `{expr}` segments.
Status CompileTemplate(std::string_view text, Impl* flwor) {
  std::string_view trimmed = Trim(text);
  // A bare expression (possibly brace-wrapped) has no literal part.
  if (!trimmed.empty() && trimmed.front() != '<') {
    std::string_view expr_text = trimmed;
    if (trimmed.front() == '{' && trimmed.back() == '}') {
      expr_text = Trim(trimmed.substr(1, trimmed.size() - 2));
    }
    CXML_ASSIGN_OR_RETURN(xpath::ExprPtr expr, CompileEmbedded(expr_text));
    Impl::Segment seg;
    seg.expr = std::move(expr);
    flwor->segments.push_back(std::move(seg));
    flwor->bare_expression = true;
    return Status::Ok();
  }
  // Element constructor: split on top-level braces.
  std::string literal;
  char quote = '\0';
  for (size_t i = 0; i < trimmed.size(); ++i) {
    char c = trimmed[i];
    if (quote != '\0') {
      if (c == quote) quote = '\0';
      literal.push_back(c);
      continue;
    }
    if (c == '{') {
      // Find the matching close brace (XPath string literals respected).
      char inner_quote = '\0';
      size_t j = i + 1;
      for (; j < trimmed.size(); ++j) {
        char d = trimmed[j];
        if (inner_quote != '\0') {
          if (d == inner_quote) inner_quote = '\0';
        } else if (d == '\'' || d == '"') {
          inner_quote = d;
        } else if (d == '}') {
          break;
        }
      }
      if (j >= trimmed.size()) {
        return status::ParseError("XQuery: unterminated '{' in constructor");
      }
      if (!literal.empty()) {
        Impl::Segment lit;
        lit.literal = std::move(literal);
        literal.clear();
        flwor->segments.push_back(std::move(lit));
      }
      CXML_ASSIGN_OR_RETURN(
          xpath::ExprPtr expr,
          CompileEmbedded(Trim(trimmed.substr(i + 1, j - i - 1))));
      Impl::Segment seg;
      seg.expr = std::move(expr);
      flwor->segments.push_back(std::move(seg));
      i = j;
      continue;
    }
    // Track attribute-value quotes so braces inside them still splice
    // (they do: XQuery attribute templates), but keep quote state for
    // robustness of keyword scanning only.
    literal.push_back(c);
  }
  if (!literal.empty()) {
    Impl::Segment lit;
    lit.literal = std::move(literal);
    flwor->segments.push_back(std::move(lit));
  }
  return Status::Ok();
}

Result<Impl> ParseFlwor(std::string_view query) {
  Impl flwor;
  size_t pos = 0;
  std::string_view keyword;
  size_t at = FindClauseKeyword(query, 0, &keyword);
  if (at != 0) {
    return status::ParseError("XQuery: expected 'for' or 'let'");
  }
  while (true) {
    if (keyword == "for" || keyword == "let") {
      bool is_for = keyword == "for";
      pos = at + keyword.size();
      // $name
      while (pos < query.size() && IsSpaceChar(query[pos])) ++pos;
      if (pos >= query.size() || query[pos] != '$') {
        return status::ParseError(
            StrCat("XQuery: expected $variable after '", keyword, "'"));
      }
      size_t name_begin = ++pos;
      while (pos < query.size() && !IsSpaceChar(query[pos]) &&
             query[pos] != ':') {
        ++pos;
      }
      std::string var(query.substr(name_begin, pos - name_begin));
      if (var.empty()) {
        return status::ParseError("XQuery: empty variable name");
      }
      // 'in' or ':='
      while (pos < query.size() && IsSpaceChar(query[pos])) ++pos;
      if (is_for) {
        if (query.substr(pos, 2) != "in" || pos + 2 >= query.size() ||
            !IsSpaceChar(query[pos + 2])) {
          return status::ParseError("XQuery: expected 'in' after 'for $x'");
        }
        pos += 2;
      } else {
        if (query.substr(pos, 2) != ":=") {
          return status::ParseError("XQuery: expected ':=' after 'let $x'");
        }
        pos += 2;
      }
      size_t next = FindClauseKeyword(query, pos, &keyword);
      if (next == std::string_view::npos) {
        return status::ParseError(
            "XQuery: FLWOR must end with a 'return' clause");
      }
      Impl::Binding binding;
      binding.is_for = is_for;
      binding.var = std::move(var);
      CXML_ASSIGN_OR_RETURN(
          binding.expr, CompileEmbedded(Trim(query.substr(pos, next - pos))));
      flwor.bindings.push_back(std::move(binding));
      at = next;
      continue;
    }
    break;
  }
  if (flwor.bindings.empty()) {
    return status::ParseError("XQuery: FLWOR needs at least one binding");
  }
  if (keyword == "where") {
    pos = at + keyword.size();
    size_t next = FindClauseKeyword(query, pos, &keyword);
    if (next == std::string_view::npos) {
      return status::ParseError(
          "XQuery: FLWOR must end with a 'return' clause");
    }
    CXML_ASSIGN_OR_RETURN(
        flwor.where, CompileEmbedded(Trim(query.substr(pos, next - pos))));
    at = next;
  }
  if (keyword == "order") {
    pos = at + keyword.size();
    while (pos < query.size() && IsSpaceChar(query[pos])) ++pos;
    if (query.substr(pos, 2) != "by") {
      return status::ParseError("XQuery: expected 'by' after 'order'");
    }
    pos += 2;
    size_t next = FindClauseKeyword(query, pos, &keyword);
    if (next == std::string_view::npos) {
      return status::ParseError(
          "XQuery: FLWOR must end with a 'return' clause");
    }
    std::string_view spec = Trim(query.substr(pos, next - pos));
    if (EndsWith(spec, "descending")) {
      flwor.order_descending = true;
      spec = Trim(spec.substr(0, spec.size() - 10));
    } else if (EndsWith(spec, "ascending")) {
      spec = Trim(spec.substr(0, spec.size() - 9));
    }
    CXML_ASSIGN_OR_RETURN(flwor.order_by, CompileEmbedded(spec));
    at = next;
  }
  if (keyword != "return") {
    return status::ParseError(
        StrCat("XQuery: unexpected clause '", std::string(keyword), "'"));
  }
  pos = at + keyword.size();
  CXML_RETURN_IF_ERROR(CompileTemplate(query.substr(pos), &flwor));
  return flwor;
}

/// Renders the canonical text of a FLWOR query from its parsed form:
/// one space between clauses, embedded expressions via their AST
/// rendering — so whitespace/abbreviation variants collapse.
std::string RenderCanonical(const Impl& flwor) {
  std::string out;
  for (const Impl::Binding& binding : flwor.bindings) {
    out += binding.is_for ? "for $" : "let $";
    out += binding.var;
    out += binding.is_for ? " in " : " := ";
    out += xpath::ToString(*binding.expr);
    out += ' ';
  }
  if (flwor.where != nullptr) {
    out += StrCat("where ", xpath::ToString(*flwor.where), " ");
  }
  if (flwor.order_by != nullptr) {
    out += StrCat("order by ", xpath::ToString(*flwor.order_by),
                  flwor.order_descending ? " descending " : " ");
  }
  out += "return ";
  if (flwor.bare_expression) {
    out += xpath::ToString(*flwor.segments.front().expr);
    return out;
  }
  for (const Impl::Segment& seg : flwor.segments) {
    if (seg.expr == nullptr) {
      out += seg.literal;
    } else {
      out += StrCat("{", xpath::ToString(*seg.expr), "}");
    }
  }
  return out;
}

/// Escapes a spliced value so it is safe in both text and double-quoted
/// attribute contexts.
std::string EscapeSplice(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace

Result<CompiledQueryPtr> Compile(std::string_view query) {
  std::string_view trimmed = Trim(query);
  if (trimmed.empty()) {
    return status::InvalidArgument("XQuery: empty query");
  }
  auto compiled = std::shared_ptr<CompiledQuery>(new CompiledQuery());
  compiled->text_ = std::string(query);

  // Bare Extended XPath expression: compile to the XPath form and
  // inherit its canonical identity.
  if (!StartsWith(trimmed, "for ") && !StartsWith(trimmed, "let ") &&
      !StartsWith(trimmed, "for$") && !StartsWith(trimmed, "let$")) {
    CXML_ASSIGN_OR_RETURN(compiled->bare_, xpath::Compile(trimmed));
    compiled->canonical_ = compiled->bare_->canonical();
    compiled->hash_ = compiled->bare_->canonical_hash();
    return CompiledQueryPtr(std::move(compiled));
  }

  CXML_ASSIGN_OR_RETURN(Impl flwor, ParseFlwor(trimmed));
  compiled->canonical_ = RenderCanonical(flwor);
  compiled->hash_ = xpath::CanonicalHash(compiled->canonical_);
  compiled->impl_ = std::make_unique<const Impl>(std::move(flwor));
  return CompiledQueryPtr(std::move(compiled));
}

Result<std::vector<std::string>> XQueryEngine::Run(std::string_view query) {
  CXML_ASSIGN_OR_RETURN(CompiledQueryPtr compiled, Compile(query));
  return Run(*compiled);
}

Result<std::vector<std::string>> XQueryEngine::Run(
    const CompiledQuery& query) {
  std::vector<std::string> items;

  // Bare Extended XPath expression.
  if (query.bare_ != nullptr) {
    CXML_ASSIGN_OR_RETURN(Value value,
                          evaluator_.Evaluate(query.bare_->expr()));
    if (value.is_node_set()) {
      for (const xpath::NodeEntry& e : value.nodes()) {
        items.push_back(Value::StringValue(*g_, e));
      }
    } else {
      items.push_back(value.ToString(*g_));
    }
    return items;
  }

  const Impl& flwor = *query.impl_;

  // Evaluate binding tuples depth-first; 'for' iterates, 'let' assigns.
  struct OrderedItem {
    std::string key;
    double numeric_key = 0;
    bool key_is_numeric = false;
    std::string item;
  };
  std::vector<OrderedItem> ordered;

  std::function<Status(size_t)> enumerate =
      [&](size_t binding_index) -> Status {
    if (binding_index == flwor.bindings.size()) {
      if (flwor.where != nullptr) {
        auto keep = evaluator_.Evaluate(*flwor.where);
        if (!keep.ok()) return keep.status();
        if (!keep->ToBoolean()) return Status::Ok();
      }
      // Render the constructor.
      std::string item;
      for (const Impl::Segment& seg : flwor.segments) {
        if (seg.expr == nullptr) {
          item += seg.literal;
          continue;
        }
        auto value = evaluator_.Evaluate(*seg.expr);
        if (!value.ok()) return value.status();
        if (flwor.bare_expression && value->is_node_set() &&
            flwor.segments.size() == 1) {
          // Bare node-set: space-joined string values.
          std::string joined;
          for (const xpath::NodeEntry& e : value->nodes()) {
            if (!joined.empty()) joined += ' ';
            joined += Value::StringValue(*g_, e);
          }
          item += joined;
        } else {
          std::string rendered = value->ToString(*g_);
          item += flwor.bare_expression ? rendered : EscapeSplice(rendered);
        }
      }
      OrderedItem entry;
      entry.item = std::move(item);
      if (flwor.order_by != nullptr) {
        auto key = evaluator_.Evaluate(*flwor.order_by);
        if (!key.ok()) return key.status();
        entry.key = key->ToString(*g_);
        double numeric = key->ToNumber(*g_);
        if (!std::isnan(numeric)) {
          entry.key_is_numeric = true;
          entry.numeric_key = numeric;
        }
      }
      ordered.push_back(std::move(entry));
      return Status::Ok();
    }
    const Impl::Binding& binding = flwor.bindings[binding_index];
    auto value = evaluator_.Evaluate(*binding.expr);
    if (!value.ok()) return value.status();
    if (binding.is_for) {
      if (!value->is_node_set()) {
        return status::InvalidArgument(StrCat(
            "XQuery: 'for $", binding.var, "' needs a node-set to iterate"));
      }
      for (const xpath::NodeEntry& e : value->nodes()) {
        evaluator_.SetVariable(binding.var, Value(xpath::NodeSet{e}));
        CXML_RETURN_IF_ERROR(enumerate(binding_index + 1));
      }
      return Status::Ok();
    }
    evaluator_.SetVariable(binding.var, std::move(value).value());
    return enumerate(binding_index + 1);
  };
  // The for/let bindings belong to this Run alone: restore the
  // external ones however it ends, so a reused engine never answers a
  // later query from this one's tuples.
  std::map<std::string, Value> externals = evaluator_.variables();
  Status enumerated = enumerate(0);
  evaluator_.SetVariables(std::move(externals));
  CXML_RETURN_IF_ERROR(enumerated);

  if (flwor.order_by != nullptr) {
    auto ascending_less = [](const OrderedItem& a, const OrderedItem& b) {
      if (a.key_is_numeric && b.key_is_numeric) {
        return a.numeric_key < b.numeric_key;
      }
      return a.key < b.key;
    };
    std::stable_sort(ordered.begin(), ordered.end(),
                     [&](const OrderedItem& a, const OrderedItem& b) {
                       return flwor.order_descending ? ascending_less(b, a)
                                                     : ascending_less(a, b);
                     });
  }
  items.reserve(ordered.size());
  for (auto& entry : ordered) items.push_back(std::move(entry.item));
  return items;
}

Result<std::string> XQueryEngine::RunToString(std::string_view query) {
  CXML_ASSIGN_OR_RETURN(std::vector<std::string> items, Run(query));
  std::vector<std::string_view> views(items.begin(), items.end());
  return Join(views, "\n");
}

}  // namespace cxml::xquery
