#include "xpath/value.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/strings.h"

namespace cxml::xpath {

bool Value::ToBoolean() const {
  switch (type_) {
    case Type::kNodeSet:
      return !nodes_.empty();
    case Type::kBoolean:
      return boolean_;
    case Type::kNumber:
      return number_ != 0 && !std::isnan(number_);
    case Type::kString:
      return !string_.empty();
  }
  return false;
}

double Value::ToNumber(const goddag::Goddag& g) const {
  switch (type_) {
    case Type::kNodeSet:
    case Type::kString:
      return ParseXPathNumber(ToString(g));
    case Type::kBoolean:
      return boolean_ ? 1.0 : 0.0;
    case Type::kNumber:
      return number_;
  }
  return std::nan("");
}

std::string Value::ToString(const goddag::Goddag& g) const {
  switch (type_) {
    case Type::kNodeSet: {
      if (nodes_.empty()) return "";
      // First in document order.
      NodeEntry first = nodes_.front();
      for (const NodeEntry& e : nodes_) {
        if (DocBefore(g, e, first)) first = e;
      }
      return StringValue(g, first);
    }
    case Type::kBoolean:
      return boolean_ ? "true" : "false";
    case Type::kNumber:
      return FormatXPathNumber(number_);
    case Type::kString:
      return string_;
  }
  return "";
}

std::string Value::StringValue(const goddag::Goddag& g,
                               const NodeEntry& entry) {
  if (entry.is_document()) return g.content();
  if (entry.is_attribute()) {
    const auto& attrs = g.attributes(entry.node);
    if (entry.attr < static_cast<int32_t>(attrs.size())) {
      return attrs[static_cast<size_t>(entry.attr)].value;
    }
    return "";
  }
  return std::string(g.text(entry.node));
}

bool Value::DocBefore(const goddag::Goddag& g, const NodeEntry& a,
                      const NodeEntry& b) {
  if (a.is_document() != b.is_document()) return a.is_document();
  if (a.node != b.node) return g.Before(a.node, b.node);
  return a.attr < b.attr;
}

void Value::Normalize(const goddag::Goddag& g, NodeSet* set) {
  std::sort(set->begin(), set->end(),
            [&](const NodeEntry& a, const NodeEntry& b) {
              return DocBefore(g, a, b);
            });
  set->erase(std::unique(set->begin(), set->end()), set->end());
}

double ParseXPathNumber(std::string_view s) {
  std::string_view stripped = StripWhitespace(s);
  if (stripped.empty()) return std::nan("");
  // XPath Number ::= '-'? Digits ('.' Digits?)? | '-'? '.' Digits
  size_t i = 0;
  if (stripped[i] == '-') ++i;
  bool any_digit = false;
  while (i < stripped.size() && stripped[i] >= '0' && stripped[i] <= '9') {
    ++i;
    any_digit = true;
  }
  if (i < stripped.size() && stripped[i] == '.') {
    ++i;
    while (i < stripped.size() && stripped[i] >= '0' && stripped[i] <= '9') {
      ++i;
      any_digit = true;
    }
  }
  if (!any_digit || i != stripped.size()) return std::nan("");
  // Correctly rounded like strtod in the C locale, without copying the
  // text (attribute filters parse every candidate's value). Past
  // double's range strtod's infinity or zero stands.
  double value = 0;
  if (std::from_chars(stripped.data(), stripped.data() + stripped.size(),
                      value)
          .ec == std::errc()) {
    return value;
  }
  return std::strtod(std::string(stripped).c_str(), nullptr);
}

std::string FormatXPathNumber(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "Infinity" : "-Infinity";
  if (value == 0) return "0";  // both zeros (XPath 1.0 §4.2)
  // Shortest round-trip digits in plain decimal: §4.2 forbids exponent
  // notation, and integral values print without a fraction. The widest
  // outputs (DBL_MAX's 309 digits; the least subnormal's "0." and 324
  // more) fit with room for a sign.
  char buf[400];
  std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value,
                                         std::chars_format::fixed);
  return std::string(buf, r.ptr);
}

}  // namespace cxml::xpath
