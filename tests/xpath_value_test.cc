// Unit tests for the XPath value model: the four types, the coercion
// matrix of XPath 1.0 §3, number parsing/formatting, string-values and
// document order of node-set entries.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>
#include <string>

#include "goddag/goddag.h"
#include "xpath/value.h"

namespace cxml::xpath {
namespace {

class ValueTest : public ::testing::Test {
 protected:
  ValueTest() : g_("hello world", 1) {
    auto node = g_.InsertElement(0, "x", {{"k", "v"}}, Interval(0, 5));
    EXPECT_TRUE(node.ok());
    element_ = *node;
  }

  goddag::Goddag g_;
  goddag::NodeId element_ = goddag::kInvalidNode;
};

TEST_F(ValueTest, BooleanCoercion) {
  EXPECT_FALSE(Value(NodeSet{}).ToBoolean());
  EXPECT_TRUE(Value(NodeSet{NodeEntry::Of(element_)}).ToBoolean());
  EXPECT_TRUE(Value(1.0).ToBoolean());
  EXPECT_FALSE(Value(0.0).ToBoolean());
  EXPECT_FALSE(Value(std::nan("")).ToBoolean());
  EXPECT_TRUE(Value(std::string("x")).ToBoolean());
  EXPECT_FALSE(Value(std::string()).ToBoolean());
  EXPECT_TRUE(Value(true).ToBoolean());
}

TEST_F(ValueTest, NumberCoercion) {
  EXPECT_EQ(Value(true).ToNumber(g_), 1.0);
  EXPECT_EQ(Value(false).ToNumber(g_), 0.0);
  EXPECT_EQ(Value(std::string(" 42 ")).ToNumber(g_), 42.0);
  EXPECT_EQ(Value(std::string("-1.5")).ToNumber(g_), -1.5);
  EXPECT_TRUE(std::isnan(Value(std::string("abc")).ToNumber(g_)));
  // Node-set: string-value of the first node.
  Value ns(NodeSet{NodeEntry::Of(element_)});
  EXPECT_TRUE(std::isnan(ns.ToNumber(g_)));  // "hello" is not a number
}

TEST_F(ValueTest, StringCoercion) {
  EXPECT_EQ(Value(true).ToString(g_), "true");
  EXPECT_EQ(Value(false).ToString(g_), "false");
  EXPECT_EQ(Value(NodeSet{}).ToString(g_), "");
  EXPECT_EQ(Value(NodeSet{NodeEntry::Of(element_)}).ToString(g_),
            "hello");
}

TEST_F(ValueTest, StringValueOfEntries) {
  EXPECT_EQ(Value::StringValue(g_, NodeEntry::Of(element_)), "hello");
  EXPECT_EQ(Value::StringValue(g_, NodeEntry::Attr(element_, 0)), "v");
  EXPECT_EQ(Value::StringValue(g_, NodeEntry::Document()), "hello world");
  EXPECT_EQ(Value::StringValue(g_, NodeEntry::Of(g_.root())),
            "hello world");
}

TEST_F(ValueTest, DocumentOrderOfEntries) {
  NodeEntry doc = NodeEntry::Document();
  NodeEntry root = NodeEntry::Of(g_.root());
  NodeEntry el = NodeEntry::Of(element_);
  NodeEntry attr = NodeEntry::Attr(element_, 0);
  EXPECT_TRUE(Value::DocBefore(g_, doc, root));
  EXPECT_TRUE(Value::DocBefore(g_, root, el));
  EXPECT_TRUE(Value::DocBefore(g_, el, attr));  // attrs follow their node
  EXPECT_FALSE(Value::DocBefore(g_, attr, el));
  EXPECT_FALSE(Value::DocBefore(g_, doc, doc));
}

TEST_F(ValueTest, NormalizeSortsAndDedupes) {
  NodeSet set = {NodeEntry::Attr(element_, 0), NodeEntry::Of(element_),
                 NodeEntry::Of(g_.root()), NodeEntry::Of(element_)};
  Value::Normalize(g_, &set);
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set[0], NodeEntry::Of(g_.root()));
  EXPECT_EQ(set[1], NodeEntry::Of(element_));
  EXPECT_EQ(set[2], NodeEntry::Attr(element_, 0));
}

TEST(XPathNumberTest, Parsing) {
  EXPECT_EQ(ParseXPathNumber("5"), 5.0);
  EXPECT_EQ(ParseXPathNumber("-5"), -5.0);
  EXPECT_EQ(ParseXPathNumber("1.25"), 1.25);
  EXPECT_EQ(ParseXPathNumber("-0.5"), -0.5);
  EXPECT_EQ(ParseXPathNumber("  7  "), 7.0);
  EXPECT_EQ(ParseXPathNumber("5."), 5.0);  // '5.' is a valid XPath Number
  EXPECT_TRUE(std::isnan(ParseXPathNumber("")));
  EXPECT_TRUE(std::isnan(ParseXPathNumber("1e3")));  // no exponents
  EXPECT_TRUE(std::isnan(ParseXPathNumber("1 2")));
  EXPECT_TRUE(std::isnan(ParseXPathNumber("+5")));  // no leading plus
  EXPECT_TRUE(std::isnan(ParseXPathNumber(".")));
  EXPECT_TRUE(std::isnan(ParseXPathNumber("-")));
  EXPECT_EQ(ParseXPathNumber(".5"), 0.5);
  EXPECT_EQ(ParseXPathNumber("-.25"), -0.25);
  EXPECT_EQ(ParseXPathNumber("0.1"), 0.1);  // correctly rounded
  EXPECT_EQ(ParseXPathNumber("12345678901234567890"), 12345678901234567890.0);
  // Past double's range: infinity and zero, as strtod gives.
  EXPECT_EQ(ParseXPathNumber("1" + std::string(400, '0')), HUGE_VAL);
  EXPECT_EQ(ParseXPathNumber("-1" + std::string(400, '0')), -HUGE_VAL);
  EXPECT_EQ(ParseXPathNumber("0." + std::string(400, '0') + "1"), 0.0);
}

TEST(XPathNumberTest, Formatting) {
  EXPECT_EQ(FormatXPathNumber(0), "0");
  EXPECT_EQ(FormatXPathNumber(42), "42");
  EXPECT_EQ(FormatXPathNumber(-7), "-7");
  EXPECT_EQ(FormatXPathNumber(2.5), "2.5");
  EXPECT_EQ(FormatXPathNumber(std::nan("")), "NaN");
  EXPECT_EQ(FormatXPathNumber(INFINITY), "Infinity");
  EXPECT_EQ(FormatXPathNumber(-INFINITY), "-Infinity");
  // Integral doubles print without a fraction (XPath string() rules).
  EXPECT_EQ(FormatXPathNumber(13.0), "13");
  EXPECT_EQ(FormatXPathNumber(-0.0), "0");
  // Just enough digits to tell the double from every other (§4.2)...
  EXPECT_EQ(FormatXPathNumber(0.1 + 0.2), "0.30000000000000004");
  // ...and never exponent notation, however small or large.
  EXPECT_EQ(FormatXPathNumber(1.0 / 10000000), "0.0000001");
  for (double v : {1.2345678901234567e19, -9.3e25, DBL_MAX, -DBL_MAX,
                   std::numeric_limits<double>::denorm_min()}) {
    std::string text = FormatXPathNumber(v);
    EXPECT_EQ(text.find_first_of("eE"), std::string::npos) << text;
    EXPECT_EQ(ParseXPathNumber(text), v) << text;
  }
}

TEST(XPathNumberTest, RoundTrip) {
  for (double v : {0.0, 1.0, -1.0, 2.5, -1234.0, 0.125}) {
    EXPECT_EQ(ParseXPathNumber(FormatXPathNumber(v)), v);
  }
}

}  // namespace
}  // namespace cxml::xpath
