#ifndef CXML_XPATH_VALUE_H_
#define CXML_XPATH_VALUE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "goddag/goddag.h"

namespace cxml::xpath {

/// A member of an XPath node-set: a GODDAG node, or one of its
/// attributes (attr >= 0 indexes into `attributes(node)`).
struct NodeEntry {
  goddag::NodeId node = goddag::kInvalidNode;
  int32_t attr = -1;

  bool is_attribute() const { return attr >= 0; }
  bool operator==(const NodeEntry& o) const {
    return node == o.node && attr == o.attr;
  }
  bool operator<(const NodeEntry& o) const {  // arena order, for dedup
    return node != o.node ? node < o.node : attr < o.attr;
  }

  static NodeEntry Of(goddag::NodeId id) { return {id, -1}; }
  static NodeEntry Attr(goddag::NodeId id, int32_t index) {
    return {id, index};
  }
  /// The virtual document node: the parent of the GODDAG root, so that
  /// absolute paths behave exactly like XPath 1.0 (`/r` selects the root
  /// element, `//w` its descendants).
  static NodeEntry Document() { return {goddag::kInvalidNode, -1}; }
  bool is_document() const { return node == goddag::kInvalidNode; }
};

using NodeSet = std::vector<NodeEntry>;

/// An XPath 1.0 value: node-set, boolean, number or string, with the
/// standard coercions. Conversions that need node string-values take the
/// GODDAG.
class Value {
 public:
  enum class Type { kNodeSet, kBoolean, kNumber, kString };

  Value() : type_(Type::kNodeSet) {}
  explicit Value(NodeSet nodes)
      : type_(Type::kNodeSet), nodes_(std::move(nodes)) {}
  explicit Value(bool b) : type_(Type::kBoolean), boolean_(b) {}
  explicit Value(double n) : type_(Type::kNumber), number_(n) {}
  explicit Value(std::string s)
      : type_(Type::kString), string_(std::move(s)) {}

  Type type() const { return type_; }
  bool is_node_set() const { return type_ == Type::kNodeSet; }

  const NodeSet& nodes() const { return nodes_; }
  NodeSet& nodes() { return nodes_; }

  /// XPath boolean(): non-empty node-set / non-zero non-NaN number /
  /// non-empty string.
  bool ToBoolean() const;
  /// XPath number(); strings parse as XPath numbers (NaN on failure).
  double ToNumber(const goddag::Goddag& g) const;
  /// XPath string(); node-sets use the first node in document order.
  std::string ToString(const goddag::Goddag& g) const;

  /// String-value of one node-set entry: the text dominated by the node,
  /// or the attribute value.
  static std::string StringValue(const goddag::Goddag& g,
                                 const NodeEntry& entry);

  /// Document-order comparison of entries (attributes follow their node,
  /// ordered by index).
  static bool DocBefore(const goddag::Goddag& g, const NodeEntry& a,
                        const NodeEntry& b);

  /// Sorts into document order and removes duplicates.
  static void Normalize(const goddag::Goddag& g, NodeSet* set);

 private:
  Type type_;
  NodeSet nodes_;
  bool boolean_ = false;
  double number_ = 0;
  std::string string_;
};

/// Parses a string as an XPath number (optional sign, digits, fraction);
/// NaN when malformed.
double ParseXPathNumber(std::string_view s);

/// Formats a number per XPath string() rules: plain decimal, never
/// exponent notation, with the fewest digits that parse back to the same
/// double (integers without ".0", NaN/Infinity spelled out).
std::string FormatXPathNumber(double value);

}  // namespace cxml::xpath

#endif  // CXML_XPATH_VALUE_H_
