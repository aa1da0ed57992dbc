#include <gtest/gtest.h>

#include <set>

#include "goddag/builder.h"
#include "test_util.h"
#include "workload/generator.h"
#include "xpath/engine.h"

namespace cxml::xpath {
namespace {

using ::cxml::testing::BoethiusFixture;
using ::cxml::testing::FindElement;
using goddag::NodeId;

class XPathEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = BoethiusFixture::Make();
    ASSERT_NE(fixture_.g, nullptr);
    g_ = fixture_.g.get();
    engine_ = std::make_unique<XPathEngine>(*g_);
  }

  /// Evaluates and returns the node-set as element texts (doc order).
  std::vector<std::string> Texts(const char* expr) {
    auto nodes = engine_->SelectNodes(expr);
    EXPECT_TRUE(nodes.ok()) << expr << ": " << nodes.status();
    std::vector<std::string> out;
    if (!nodes.ok()) return out;
    for (NodeId n : *nodes) out.emplace_back(g_->text(n));
    return out;
  }

  /// Evaluates and returns tags of the node-set.
  std::vector<std::string> Tags(const char* expr) {
    auto nodes = engine_->SelectNodes(expr);
    EXPECT_TRUE(nodes.ok()) << expr << ": " << nodes.status();
    std::vector<std::string> out;
    if (!nodes.ok()) return out;
    for (NodeId n : *nodes) {
      out.push_back(g_->is_leaf(n) ? "#text" : g_->tag(n));
    }
    return out;
  }

  double Number(const char* expr) {
    auto v = engine_->Evaluate(expr);
    EXPECT_TRUE(v.ok()) << expr << ": " << v.status();
    return v.ok() ? v->ToNumber(*g_) : -9999;
  }

  std::string String(const char* expr) {
    auto v = engine_->Evaluate(expr);
    EXPECT_TRUE(v.ok()) << expr << ": " << v.status();
    return v.ok() ? v->ToString(*g_) : "<error>";
  }

  bool Boolean(const char* expr) {
    auto v = engine_->Evaluate(expr);
    EXPECT_TRUE(v.ok()) << expr << ": " << v.status();
    return v.ok() && v->ToBoolean();
  }

  BoethiusFixture fixture_;
  goddag::Goddag* g_ = nullptr;
  std::unique_ptr<XPathEngine> engine_;
};

// ----------------------------------------------------- basic selection

TEST_F(XPathEvalTest, AbsoluteRoot) {
  auto nodes = engine_->SelectNodes("/r");
  ASSERT_TRUE(nodes.ok());
  ASSERT_EQ(nodes->size(), 1u);
  EXPECT_EQ((*nodes)[0], g_->root());
}

TEST_F(XPathEvalTest, ChildrenAcrossHierarchies) {
  // Children of the root span all four hierarchies.
  std::set<std::string> tags;
  for (const auto& t : Tags("/r/*")) tags.insert(t);
  EXPECT_TRUE(tags.count("line"));
  EXPECT_TRUE(tags.count("s"));
  // res/dmg hang directly off the root in their hierarchies.
  EXPECT_TRUE(tags.count("res"));
  EXPECT_TRUE(tags.count("dmg"));
}

TEST_F(XPathEvalTest, DescendantSearch) {
  EXPECT_EQ(Number("count(//w)"), 13);
  EXPECT_EQ(Number("count(//line)"), 2);
  EXPECT_EQ(Number("count(//s)"), 2);
  // root + 2 lines + 2 sentences + 13 words + res + dmg = 20 elements.
  EXPECT_EQ(Number("count(//*)"), 20);
}

TEST_F(XPathEvalTest, PathThroughHierarchy) {
  EXPECT_EQ(Number("count(/r/s/w)"), 13);
  EXPECT_EQ(Texts("/r/line[1]").front(),
            "\xC3\x90""a se Wisdom \xC3\xBE""a \xC3\xBE""is fitte asun");
}

TEST_F(XPathEvalTest, PositionalPredicates) {
  auto texts = Texts("/r/s[2]/w");
  ASSERT_EQ(texts.size(), 5u);
  EXPECT_EQ(texts.front(), "\xC3\xBE""a");
  EXPECT_EQ(texts.back(), "seggan");
  EXPECT_EQ(Texts("//w[position()=last()]").back(), "seggan");
  EXPECT_EQ(Texts("/r/s[1]/w[3]"), (std::vector<std::string>{"Wisdom"}));
}

TEST_F(XPathEvalTest, AttributePredicates) {
  EXPECT_EQ(Number("count(//line[@n='2'])"), 1);
  EXPECT_EQ(Texts("//dmg[@type='stain']").size(), 1u);
  EXPECT_EQ(Number("count(//line[@n])"), 2);
  EXPECT_EQ(Number("count(//line[@missing])"), 0);
}

TEST_F(XPathEvalTest, AttributeSelection) {
  EXPECT_EQ(String("string(//line[1]/@n)"), "1");
  EXPECT_EQ(String("string(//res/@resp)"), "ed");
  EXPECT_EQ(Number("count(//line/@n)"), 2);
}

TEST_F(XPathEvalTest, TextNodes) {
  // Leaves under a word.
  EXPECT_EQ(String("string(/r/s[1]/w[3]/text())"), "Wisdom");
  // All leaves of the document.
  EXPECT_EQ(Number("count(//text())"),
            static_cast<double>(g_->num_leaves()));
}

// ------------------------------------------------------- GODDAG axes

TEST_F(XPathEvalTest, MultiParentLeafAncestors) {
  // Ancestors of the leaf inside the damage region span hierarchies.
  std::set<std::string> tags;
  for (const auto& t : Tags("//dmg/text()[1]/ancestor::*")) tags.insert(t);
  EXPECT_TRUE(tags.count("dmg"));
  EXPECT_TRUE(tags.count("line"));
  EXPECT_TRUE(tags.count("s"));
  EXPECT_TRUE(tags.count("r"));
}

TEST_F(XPathEvalTest, AncestorAcrossHierarchies) {
  // A word fully inside line 1: its extent-ancestors include the line.
  std::set<std::string> tags;
  for (const auto& t : Tags("/r/s[1]/w[3]/ancestor::*")) tags.insert(t);
  EXPECT_TRUE(tags.count("s"));
  EXPECT_TRUE(tags.count("line"));
  EXPECT_TRUE(tags.count("r"));
}

TEST_F(XPathEvalTest, QualifiedAncestor) {
  // Restrict the ancestor axis to the physical hierarchy.
  auto tags = Tags("/r/s[1]/w[3]/ancestor(physical)::*");
  // Only the line (root has no hierarchy, it is added separately; the
  // qualifier filters elements).
  std::set<std::string> set(tags.begin(), tags.end());
  EXPECT_TRUE(set.count("line"));
  EXPECT_FALSE(set.count("s"));
}

TEST_F(XPathEvalTest, QualifiedChild) {
  EXPECT_EQ(Number("count(/r/child(physical)::*)"), 2);    // two lines
  EXPECT_EQ(Number("count(/r/child(linguistic)::*)"), 2);  // two sentences
  // Unknown hierarchy is an error.
  EXPECT_FALSE(engine_->Evaluate("/r/child(nope)::*").ok());
}

TEST_F(XPathEvalTest, ParentOfLeafIsMultiValued) {
  // A leaf strictly inside the restoration has parents in all four
  // hierarchies (line, w or s, res, dmg-or-root).
  auto nodes = engine_->SelectNodes("//res/text()[2]/parent::*");
  ASSERT_TRUE(nodes.ok()) << nodes.status();
  EXPECT_GE(nodes->size(), 2u);
}

TEST_F(XPathEvalTest, SiblingAxes) {
  EXPECT_EQ(Texts("/r/s[1]/w[3]/following-sibling::w[1]"),
            (std::vector<std::string>{"\xC3\xBE""a"}));
  EXPECT_EQ(Texts("/r/s[1]/w[3]/preceding-sibling::w"),
            (std::vector<std::string>{"\xC3\x90""a", "se"}));
  EXPECT_EQ(Texts("/r/line[2]/preceding-sibling::*"),
            Texts("/r/line[1]"));
}

TEST_F(XPathEvalTest, FollowingPrecedingAreExtentBased) {
  // Words entirely after line 1: hæfde, þa, ongan, he, eft, seggan —
  // the straddling 'asungen' is excluded.
  auto after = Texts("/r/line[1]/following::w");
  for (const auto& t : after) EXPECT_NE(t, "asungen");
  EXPECT_EQ(after.size(), 6u);
  // Words entirely before line 2 (same exclusion).
  auto before = Texts("/r/line[2]/preceding::w");
  for (const auto& t : before) EXPECT_NE(t, "asungen");
  EXPECT_EQ(before.size(), 6u);
}

TEST_F(XPathEvalTest, ReverseAxisProximityOrder) {
  // Proximity across hierarchies is extent-based: for the word 'Ða'
  // the innermost dominating extent is line 1 (line ⊂ sentence here).
  auto nearest = Tags("/r/s[1]/w[1]/ancestor::*[1]");
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_EQ(nearest[0], "line");
  // Qualified to the linguistic hierarchy, the nearest ancestor is the
  // sentence.
  auto ling = Tags("/r/s[1]/w[1]/ancestor(linguistic)::*[1]");
  ASSERT_EQ(ling.size(), 1u);
  EXPECT_EQ(ling[0], "s");
}

// --------------------------------------------- the overlapping axes

TEST_F(XPathEvalTest, OverlappingAxisFindsStraddlingWord) {
  EXPECT_EQ(Texts("//line[1]/overlapping::w"),
            (std::vector<std::string>{"asungen"}));
  EXPECT_EQ(Texts("//line[2]/overlapping::w"),
            (std::vector<std::string>{"asungen"}));
  // And symmetrically from the word.
  auto tags = Tags("//w[text()='asungen']/overlapping::*");
  // Hmm: text()='asungen' — predicate on child::text() string value.
  (void)tags;
}

TEST_F(XPathEvalTest, OverlappingFromRes) {
  // res = "tte asungen hæ" overlaps fitte, hæfde (w), both lines.
  std::set<std::string> texts;
  for (const auto& t : Texts("//res/overlapping::w")) texts.insert(t);
  EXPECT_EQ(texts, (std::set<std::string>{"fitte", "h\xC3\xA6""fde"}));
  EXPECT_EQ(Number("count(//res/overlapping::line)"), 2);
  // s1 contains res? s1 = first sentence "Ða ... hæfde" contains res
  // entirely -> not overlapping.
  EXPECT_EQ(Number("count(//res/overlapping::s)"), 0);
}

TEST_F(XPathEvalTest, OverlappingDirectional) {
  // line1: asungen starts inside it and runs past -> overlapping-start.
  EXPECT_EQ(Texts("//line[1]/overlapping-start::w"),
            (std::vector<std::string>{"asungen"}));
  EXPECT_EQ(Number("count(//line[1]/overlapping-end::w)"), 0);
  // line2: asungen started before line2 and ends inside it.
  EXPECT_EQ(Texts("//line[2]/overlapping-end::w"),
            (std::vector<std::string>{"asungen"}));
  EXPECT_EQ(Number("count(//line[2]/overlapping-start::w)"), 0);
}

TEST_F(XPathEvalTest, QualifiedOverlapping) {
  // Only overlaps within the linguistic hierarchy.
  auto texts = Texts("//res/overlapping(linguistic)::*");
  std::set<std::string> set(texts.begin(), texts.end());
  EXPECT_EQ(set, (std::set<std::string>{"fitte", "h\xC3\xA6""fde"}));
}

TEST_F(XPathEvalTest, OverlappingPredicateCombination) {
  // The paper's demo query shape: overlapping content given two tags —
  // lines that some word overlaps.
  EXPECT_EQ(Number("count(//line[overlapping::w])"), 2);
  EXPECT_EQ(Number("count(//w[overlapping::line])"), 1);
  EXPECT_EQ(Texts("//w[overlapping::line]"),
            (std::vector<std::string>{"asungen"}));
}

// ------------------------------------------------------- functions

TEST_F(XPathEvalTest, CoreFunctions) {
  EXPECT_EQ(String("concat('a', 'b', 'c')"), "abc");
  EXPECT_TRUE(Boolean("starts-with('asungen', 'asun')"));
  EXPECT_TRUE(Boolean("contains(string(//line[1]), 'Wisdom')"));
  EXPECT_EQ(String("substring('12345', 2, 3)"), "234");
  EXPECT_EQ(String("substring-before('a-b', '-')"), "a");
  EXPECT_EQ(String("substring-after('a-b', '-')"), "b");
  EXPECT_EQ(Number("string-length('abc')"), 3);
  EXPECT_EQ(String("normalize-space('  a   b ')"), "a b");
  EXPECT_EQ(String("translate('abc', 'ab', 'AB')"), "ABc");
  EXPECT_EQ(String("translate('abc', 'b', '')"), "ac");
  EXPECT_EQ(Number("floor(1.9)"), 1);
  EXPECT_EQ(Number("ceiling(1.1)"), 2);
  EXPECT_EQ(Number("round(2.5)"), 3);
  EXPECT_EQ(Number("sum(//line/@n)"), 3);  // 1 + 2
  EXPECT_TRUE(Boolean("not(false())"));
  EXPECT_EQ(Number("count(//w) * 2"), 26);
}

TEST_F(XPathEvalTest, StringLengthCountsCodePoints) {
  // 'Ða' is three bytes but two code points.
  EXPECT_EQ(Number("string-length(string(//w[1]))"), 2);
}

TEST_F(XPathEvalTest, NameFunctions) {
  EXPECT_EQ(String("name(//line[1])"), "line");
  EXPECT_EQ(String("name(//line[1]/@n)"), "n");
  EXPECT_EQ(String("name(//text()[1])"), "");
}

TEST_F(XPathEvalTest, ExtensionFunctions) {
  EXPECT_EQ(String("hierarchy(//line[1])"), "physical");
  EXPECT_EQ(String("hierarchy(//w[1])"), "linguistic");
  EXPECT_EQ(String("hierarchy(//res)"), "restoration");
  // asungen overlaps the two lines.
  EXPECT_EQ(Number("overlap-degree(//w[overlapping::line])"), 2);
  EXPECT_EQ(Number("overlap-degree(//w[1])"), 0);
  EXPECT_EQ(Number("range-start(//line[2])"),
            static_cast<double>(g_->char_range(
                g_->ElementsByTag("line")[1]).begin));
  EXPECT_EQ(Number("leaf-count(/r)"),
            static_cast<double>(g_->num_leaves()));
}

TEST_F(XPathEvalTest, Variables) {
  engine_->SetVariable("min", Value(2.0));
  auto v = engine_->Evaluate("count(//line) >= $min");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->ToBoolean());
  EXPECT_FALSE(engine_->Evaluate("$unbound").ok());
}

TEST_F(XPathEvalTest, ArithmeticAndComparisons) {
  EXPECT_EQ(Number("1 + 2 * 3"), 7);
  EXPECT_EQ(Number("(1 + 2) * 3"), 9);
  EXPECT_EQ(Number("7 mod 3"), 1);
  EXPECT_EQ(Number("7 div 2"), 3.5);
  EXPECT_EQ(Number("-count(//s)"), -2);
  EXPECT_TRUE(Boolean("2 < 3 and 3 < 4"));
  EXPECT_TRUE(Boolean("2 = 2 or 1 = 2"));
  EXPECT_TRUE(Boolean("'abc' = 'abc'"));
  EXPECT_TRUE(Boolean("'abc' != 'abd'"));
}

TEST_F(XPathEvalTest, NodeSetComparisons) {
  // Existential semantics: some line has n='2'.
  EXPECT_TRUE(Boolean("//line/@n = '2'"));
  EXPECT_FALSE(Boolean("//line/@n = '7'"));
  // Mixed number comparison.
  EXPECT_TRUE(Boolean("//line/@n > 1"));
  EXPECT_FALSE(Boolean("//line/@n > 2"));
}

// XPath 1.0 §3.4: a node-set compared with a boolean compares
// boolean(node-set) with it for every operator; <, <=, > and >= then
// compare the two booleans as numbers. Both strategies share Compare,
// so the counts are written out rather than checked against the naive
// engine.
TEST_F(XPathEvalTest, NodeSetBooleanComparisonsUseEveryOperator) {
  for (AxisStrategy strategy :
       {AxisStrategy::kIndexed, AxisStrategy::kNaiveScan}) {
    engine_->SetAxisStrategy(strategy);
    // No w has @n, so boolean(@n) is false (0); both lines have one (1).
    EXPECT_EQ(Number("count(//w[@n < true()])"), 13);
    EXPECT_EQ(Number("count(//w[@n <= false()])"), 13);
    EXPECT_EQ(Number("count(//w[@n > false()])"), 0);
    EXPECT_EQ(Number("count(//line[@n < true()])"), 0);
    EXPECT_EQ(Number("count(//line[@n <= true()])"), 2);
    EXPECT_EQ(Number("count(//line[@n >= true()])"), 2);
    EXPECT_EQ(Number("count(//line[@n > false()])"), 2);
    // The boolean on the left: false() < @n is 0 < 1.
    EXPECT_EQ(Number("count(//line[false() < @n])"), 2);
    EXPECT_EQ(Number("count(//line[true() > @n])"), 0);
    EXPECT_EQ(Number("count(//w[true() > @n])"), 13);
    EXPECT_EQ(Number("count(//line[@n = true()])"), 2);
    EXPECT_EQ(Number("count(//w[@n != false()])"), 0);
  }

  // The benchmark manuscript: 20k chars, seed 3, 3319 w and no w @n.
  workload::GeneratorParams params;
  params.content_chars = 20'000;
  params.seed = 3;
  auto corpus = workload::GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  auto g = goddag::Builder::Build(*corpus->doc);
  ASSERT_TRUE(g.ok()) << g.status();
  for (AxisStrategy strategy :
       {AxisStrategy::kIndexed, AxisStrategy::kNaiveScan}) {
    XPathEngine engine(*g);
    engine.SetAxisStrategy(strategy);
    for (const char* query :
         {"count(//w[@n < true()])", "count(//w[@n <= false()])"}) {
      auto v = engine.Evaluate(query);
      ASSERT_TRUE(v.ok()) << query << ": " << v.status();
      EXPECT_EQ(v->ToNumber(*g), 3319) << query;
    }
  }
}

TEST_F(XPathEvalTest, UnionOperator) {
  EXPECT_EQ(Number("count(//line | //s)"), 4);
  EXPECT_EQ(Number("count(//line | //line)"), 2);  // dedup
  EXPECT_FALSE(engine_->Evaluate("//line | 3").ok());
}

TEST_F(XPathEvalTest, FilterExpressions) {
  EXPECT_EQ(Texts("(//w)[1]"), (std::vector<std::string>{"\xC3\x90""a"}));
  EXPECT_EQ(Texts("(//w)[last()]"), (std::vector<std::string>{"seggan"}));
  EXPECT_EQ(Number("count((//line | //s)/w)"), 13);
}

TEST_F(XPathEvalTest, EvaluateFromContext) {
  NodeId line1 = g_->ElementsByTag("line")[0];
  auto v = engine_->EvaluateFrom("count(overlapping::w)", line1);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->ToNumber(*g_), 1);
  auto texts = engine_->EvaluateFrom("string(.)", line1);
  ASSERT_TRUE(texts.ok());
  EXPECT_EQ(texts->ToString(*g_),
            "\xC3\x90""a se Wisdom \xC3\xBE""a \xC3\xBE""is fitte asun");
}

TEST_F(XPathEvalTest, ErrorsPropagate) {
  EXPECT_FALSE(engine_->Evaluate("unknown-function()").ok());
  EXPECT_FALSE(engine_->Evaluate("//w[").ok());
  EXPECT_FALSE(engine_->SelectNodes("1+1").ok());  // not a node-set
}

}  // namespace
}  // namespace cxml::xpath
