#include <gtest/gtest.h>

#include "test_util.h"
#include "xquery/xquery.h"

namespace cxml::xquery {
namespace {

using ::cxml::testing::BoethiusFixture;

class XQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = BoethiusFixture::Make();
    ASSERT_NE(fixture_.g, nullptr);
    engine_ = std::make_unique<XQueryEngine>(*fixture_.g);
  }

  std::vector<std::string> Run(const char* query) {
    auto items = engine_->Run(query);
    EXPECT_TRUE(items.ok()) << query << ": " << items.status();
    return items.value_or({});
  }

  BoethiusFixture fixture_;
  std::unique_ptr<XQueryEngine> engine_;
};

TEST_F(XQueryTest, BareXPathExpression) {
  auto items = Run("count(//w)");
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0], "13");
  // Node-set expressions yield one item per node.
  EXPECT_EQ(Run("//line").size(), 2u);
}

TEST_F(XQueryTest, SimpleForReturn) {
  auto items = Run("for $l in //line return {string($l/@n)}");
  EXPECT_EQ(items, (std::vector<std::string>{"1", "2"}));
}

TEST_F(XQueryTest, ForWithWhere) {
  auto items = Run(
      "for $w in //w where count($w/overlapping::line) > 0 "
      "return {string($w)}");
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0], "asungen");
  // overlap-degree counts overlaps with *any* hierarchy: fitte/hæfde
  // (res), ongan/seg-gan (dmg) and asungen (lines) all qualify.
  auto any = Run(
      "for $w in //w where overlap-degree($w) > 0 return {string($w)}");
  EXPECT_EQ(any.size(), 5u);
}

TEST_F(XQueryTest, LetBinding) {
  auto items = Run(
      "let $n := count(//w) return {concat('words: ', string($n))}");
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0], "words: 13");
}

TEST_F(XQueryTest, ElementConstructor) {
  auto items = Run(
      "for $w in //w[overlapping::line] "
      "return <crossing word=\"{string($w)}\" "
      "degree=\"{overlap-degree($w)}\"/>");
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0],
            "<crossing word=\"asungen\" degree=\"2\"/>");
}

TEST_F(XQueryTest, ConstructorEscapesSplices) {
  auto items = Run("let $x := '<&\"' return <v a=\"{$x}\">{$x}</v>");
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0],
            "<v a=\"&lt;&amp;&quot;\">&lt;&amp;&quot;</v>");
}

TEST_F(XQueryTest, NestedForLoops) {
  // Cartesian pairs of lines x sentences with an overlap filter: the
  // paper's two-tag overlap query in FLWOR form.
  auto items = Run(
      "for $l in //line "
      "for $w in //w "
      "where count($w/overlapping::line) > 0 "
      "return <hit line=\"{string($l/@n)}\" w=\"{string($w)}\"/>");
  // One overlapping word, iterated for each of the two lines.
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], "<hit line=\"1\" w=\"asungen\"/>");
  EXPECT_EQ(items[1], "<hit line=\"2\" w=\"asungen\"/>");
}

TEST_F(XQueryTest, VariableInPathExpression) {
  auto items = Run(
      "for $l in //line "
      "return <line n=\"{string($l/@n)}\" words=\"{count($l/"
      "overlapping::w) + count(//w[range-start(.) >= range-start($l)]"
      "[range-end(.) <= range-end($l)])}\"/>");
  ASSERT_EQ(items.size(), 2u);
  // Line 1 fully contains 6 words (Ða se Wisdom þa þis fitte) and
  // overlaps asungen; line 2 contains 6 (hæfde þa ongan he eft seggan).
  EXPECT_EQ(items[0], "<line n=\"1\" words=\"7\"/>");
  EXPECT_EQ(items[1], "<line n=\"2\" words=\"7\"/>");
}

TEST_F(XQueryTest, OrderBy) {
  auto items = Run(
      "for $w in //s[1]/w "
      "order by string-length(string($w)) descending "
      "return {string($w)}");
  ASSERT_EQ(items.size(), 8u);
  // Longest word of sentence 1 first.
  EXPECT_EQ(items[0], "asungen");
  // Ascending by default.
  auto asc = Run(
      "for $w in //s[1]/w order by string-length(string($w)) "
      "return {string($w)}");
  EXPECT_EQ(asc.back(), "asungen");
}

TEST_F(XQueryTest, MixedLetAndFor) {
  auto items = Run(
      "let $total := count(//w) "
      "for $s in //s "
      "return <s n=\"{string($s/@n)}\" share=\"{count($s/w) div "
      "$total}\"/>");
  ASSERT_EQ(items.size(), 2u);
  EXPECT_NE(items[0].find("share=\""), std::string::npos);
}

TEST_F(XQueryTest, BareNodeSetReturnsJoinedStringValues) {
  auto items = Run("for $s in //s return {$s/w}");
  ASSERT_EQ(items.size(), 2u);
  // First sentence's words joined by spaces.
  EXPECT_EQ(items[0].find("\xC3\x90""a"), 0u);
  EXPECT_NE(items[0].find("asungen"), std::string::npos);
}

TEST_F(XQueryTest, ExternalVariables) {
  engine_->SetVariable("min", xpath::Value(2.0));
  auto items = Run("for $l in //line where $l/@n >= $min "
                   "return {string($l/@n)}");
  EXPECT_EQ(items, (std::vector<std::string>{"2"}));
}

// A Run's for/let bindings end with that Run: a reused engine must not
// answer a later query from an earlier one's tuples, and an external
// variable a FLWOR shadowed is back once the Run is over.
TEST_F(XQueryTest, FlworBindingsEndWithTheirRun) {
  ASSERT_EQ(Run("for $w in //w return string($w)").size(), 13u);
  for (int pass = 0; pass < 2; ++pass) {
    auto compiled = Compile("string($w)");
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    auto leaked = pass == 0 ? engine_->Run("string($w)")
                            : engine_->Run(**compiled);
    ASSERT_FALSE(leaked.ok()) << "answered " << (*leaked)[0];
    EXPECT_EQ(leaked.status().code(), StatusCode::kNotFound);
    EXPECT_NE(leaked.status().message().find("unbound variable $w"),
              std::string::npos)
        << leaked.status();
  }

  engine_->SetVariable("min", xpath::Value(2.0));
  EXPECT_EQ(Run("for $min in //line return {string($min/@n)}"),
            (std::vector<std::string>{"1", "2"}));
  // A failing Run restores the bindings too.
  EXPECT_FALSE(engine_->Run("for $min in //line return {$nope}").ok());
  EXPECT_EQ(Run("$min"), (std::vector<std::string>{"2"}));
}

TEST_F(XQueryTest, Errors) {
  EXPECT_FALSE(engine_->Run("").ok());
  EXPECT_FALSE(engine_->Run("for $x return 1").ok());     // missing in
  EXPECT_FALSE(engine_->Run("for $x in //w").ok());       // no return
  EXPECT_FALSE(engine_->Run("let $x = 1 return $x").ok());  // = vs :=
  EXPECT_FALSE(engine_->Run("for $x in 1+1 return $x").ok());  // not a set
  EXPECT_FALSE(
      engine_->Run("for $x in //w return <a>{unclosed</a>").ok());
  EXPECT_FALSE(engine_->Run("for $x in //w return {bad syntax").ok());
}

TEST_F(XQueryTest, RunToString) {
  auto out = engine_->RunToString(
      "for $l in //line return {string($l/@n)}");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1\n2");
}

}  // namespace
}  // namespace cxml::xquery
