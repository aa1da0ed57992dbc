#ifndef CXML_TESTS_TEST_UTIL_H_
#define CXML_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "goddag/builder.h"
#include "goddag/goddag.h"
#include "storage/binary.h"
#include "workload/boethius.h"
#include "xpath/engine.h"
#include "xquery/xquery.h"

namespace cxml::testing {

/// Bundles the Boethius CMH, distributed document and GODDAG with
/// correct lifetimes for test fixtures.
struct BoethiusFixture {
  workload::BoethiusCorpus corpus;
  std::unique_ptr<goddag::Goddag> g;

  static BoethiusFixture Make() {
    auto corpus = workload::MakeBoethiusCorpus();
    EXPECT_TRUE(corpus.ok()) << corpus.status();
    BoethiusFixture f;
    f.corpus = std::move(corpus).value();
    auto g = goddag::Builder::Build(*f.corpus.doc);
    EXPECT_TRUE(g.ok()) << g.status();
    f.g = std::make_unique<goddag::Goddag>(std::move(g).value());
    return f;
  }
};

/// The Extended-XPath equivalence sweep shared by snapshot_index_test
/// (indexed axes vs naive scans) and prepared_query_test (string vs
/// prepared submission): every indexed axis (descendant, ancestor,
/// following, preceding, overlapping family) with name tests,
/// wildcards, text()/node() tests, hierarchy qualifiers and positional
/// predicates. count(...) keeps the huge unions cheap while still
/// forcing the full axis work.
inline constexpr const char* kSweepAbsoluteQueries[] = {
    "//w",
    "//*",
    "count(//text())",
    "count(//node())",
    "//line/descendant::w",
    "count(//line/descendant::text())",
    "//line/descendant-or-self::*",
    "count(//w/ancestor::*)",
    "//w/ancestor::line",
    "count(//w/ancestor-or-self::node())",
    "count(//w/ancestor(physical)::*)",
    "count(//w/following::w)",
    "count(//line[2]/following::text())",
    "count(//w/preceding::w)",
    "count(//line[2]/preceding::node())",
    "count(//w[overlapping::line])",
    "//line[overlapping(linguistic)::*]",
    "count(//w/overlapping-start::*)",
    "count(//w/overlapping-end::*)",
    "count(//descendant(linguistic)::w)",
    "string(//line[2])",
    "count(//w[string-length(string(.)) > 3]/following::line)",
    "count(//s[overlap-degree(.) > 0])",
    // Positional steps exercising the PR 5 pushdown ([1]/[last()] on
    // descendant and child steps, with qualifiers and non-leading
    // positions) — the naive scans stay the oracle for these too.
    "string(/descendant::w[1])",
    "string(/descendant::w[last()])",
    "count(//line/descendant::w[1])",
    "count(//line/descendant::w[last()])",
    "count(//line/descendant::text()[1])",
    "count(//line/descendant(linguistic)::w[last()])",
    "//w[1]",
    "string(//line[last()])",
    "count(//line/descendant::w[1][string-length(string(.)) > 2])",
    "count(//line/descendant::w[string-length(string(.)) > 2][1])",
    "count(/descendant::node()[last()])",
};

/// Relative queries of the sweep, run from a handful of context nodes
/// of each kind.
inline constexpr const char* kSweepRelativeQueries[] = {
    "descendant::*",
    "descendant-or-self::node()",
    "ancestor::*",
    "ancestor-or-self::node()",
    "following::*",
    "count(following::text())",
    "preceding::*",
    "count(preceding::node())",
    "overlapping::*",
    "overlapping-start::*",
    "overlapping-end::*",
    "descendant::w[1]",
    "descendant::node()[last()]",
    "child::*[last()]",
};

/// The clone equivalence oracle: the structural storage::Clone and the
/// retained Save/Load storage::CloneViaSnapshot must be
/// indistinguishable — identical CXG1 bytes (equal to the original's
/// too) and identical Extended XPath / XQuery results.
inline void ExpectCloneEquivalence(
    const goddag::Goddag& original,
    const std::vector<std::string>& xpath_queries,
    const std::vector<std::string>& xquery_queries) {
  auto structural = storage::Clone(original);
  ASSERT_TRUE(structural.ok()) << structural.status();
  auto oracle = storage::CloneViaSnapshot(original);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  EXPECT_TRUE(structural->g->Validate().ok()) << structural->g->Validate();
  EXPECT_EQ(structural->g->cmh(), structural->cmh.get())
      << "structural clone must bind the CMH it carries";

  auto structural_bytes = storage::Save(*structural->g);
  auto oracle_bytes = storage::Save(*oracle->g);
  auto original_bytes = storage::Save(original);
  ASSERT_TRUE(structural_bytes.ok() && oracle_bytes.ok() &&
              original_bytes.ok());
  EXPECT_EQ(*structural_bytes, *oracle_bytes);
  EXPECT_EQ(*structural_bytes, *original_bytes);

  xpath::XPathEngine structural_xpath(*structural->g);
  xpath::XPathEngine oracle_xpath(*oracle->g);
  for (const std::string& query : xpath_queries) {
    auto a = structural_xpath.EvaluateToStrings(query);
    auto b = oracle_xpath.EvaluateToStrings(query);
    ASSERT_TRUE(a.ok()) << query << ": " << a.status();
    ASSERT_TRUE(b.ok()) << query << ": " << b.status();
    EXPECT_EQ(*a, *b) << query;
  }
  xquery::XQueryEngine structural_xquery(*structural->g);
  xquery::XQueryEngine oracle_xquery(*oracle->g);
  for (const std::string& query : xquery_queries) {
    auto a = structural_xquery.Run(query);
    auto b = oracle_xquery.Run(query);
    ASSERT_TRUE(a.ok()) << query << ": " << a.status();
    ASSERT_TRUE(b.ok()) << query << ": " << b.status();
    EXPECT_EQ(*a, *b) << query;
  }
}

/// Finds the unique element with `tag` whose text is `text`; fails the
/// test when absent or ambiguous.
inline goddag::NodeId FindElement(const goddag::Goddag& g,
                                  std::string_view tag,
                                  std::string_view text) {
  goddag::NodeId found = goddag::kInvalidNode;
  for (goddag::NodeId node : g.ElementsByTag(tag)) {
    if (g.text(node) == text) {
      EXPECT_EQ(found, goddag::kInvalidNode)
          << "ambiguous " << tag << " with text " << text;
      found = node;
    }
  }
  EXPECT_NE(found, goddag::kInvalidNode)
      << "no <" << tag << "> with text '" << text << "'";
  return found;
}

}  // namespace cxml::testing

#endif  // CXML_TESTS_TEST_UTIL_H_
