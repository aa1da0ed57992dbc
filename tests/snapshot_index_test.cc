// goddag::SnapshotIndex and the indexed Extended XPath axes: the
// indexed strategy must return byte-identical results to the naive
// full scans (the equivalence oracle kept compile-time available via
// xpath::AxisStrategy::kNaiveScan), on the hand-built Boethius corpus
// and across randomized synthetic manuscripts; plus the pinned
// following/preceding equal-extent semantics, the per-version index
// the service layer's snapshots share, and the fused `//T` step checked
// against the literal two-step evaluation on the benchmark manuscript
// and an imported TEI document.

#include "goddag/snapshot_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/strings.h"
#include "goddag/builder.h"
#include "ingest/ingest.h"
#include "sacx/goddag_handler.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "storage/binary.h"
#include "test_util.h"
#include "workload/generator.h"
#include "xpath/engine.h"
#include "xquery/xquery.h"

namespace cxml {
namespace {

using goddag::NodeId;
using goddag::SnapshotIndex;

// The equivalence sweep (absolute + relative queries) now lives in
// test_util.h, shared with prepared_query_test's string-vs-prepared
// sweep.
using testing::kSweepAbsoluteQueries;
using testing::kSweepRelativeQueries;

/// Asserts the two strategies agree on every query, absolute and
/// relative (the relative ones from several elements and a leaf).
void ExpectStrategiesAgree(const goddag::Goddag& g) {
  xpath::XPathEngine indexed(g);
  // Shared prebuilt index, as the service layer would inject it.
  indexed.UseSnapshotIndex(std::make_shared<const SnapshotIndex>(g));
  xpath::XPathEngine naive(g);
  naive.SetAxisStrategy(xpath::AxisStrategy::kNaiveScan);

  for (const char* query : kSweepAbsoluteQueries) {
    auto a = indexed.EvaluateToStrings(query);
    auto b = naive.EvaluateToStrings(query);
    ASSERT_TRUE(a.ok()) << query << ": " << a.status();
    ASSERT_TRUE(b.ok()) << query << ": " << b.status();
    EXPECT_EQ(*a, *b) << query;
  }

  std::vector<NodeId> contexts;
  std::vector<NodeId> words = g.ElementsByTag("w");
  for (size_t i = 0; i < words.size(); i += words.size() / 5 + 1) {
    contexts.push_back(words[i]);
  }
  std::vector<NodeId> lines = g.ElementsByTag("line");
  if (!lines.empty()) contexts.push_back(lines[lines.size() / 2]);
  if (g.num_leaves() > 1) contexts.push_back(g.leaf_at(1));
  for (NodeId ctx : contexts) {
    for (const char* query : kSweepRelativeQueries) {
      auto va = indexed.EvaluateFrom(query, ctx);
      auto vb = naive.EvaluateFrom(query, ctx);
      ASSERT_TRUE(va.ok()) << query << ": " << va.status();
      ASSERT_TRUE(vb.ok()) << query << ": " << vb.status();
      if (va->is_node_set()) {
        ASSERT_TRUE(vb->is_node_set()) << query;
        EXPECT_EQ(va->nodes(), vb->nodes()) << query << " from node " << ctx;
      } else {
        EXPECT_EQ(va->ToString(g), vb->ToString(g)) << query;
      }
    }
  }
}

TEST(SnapshotIndexEquivalence, Boethius) {
  auto fixture = testing::BoethiusFixture::Make();
  ExpectStrategiesAgree(*fixture.g);
}

struct Config {
  size_t content_chars;
  size_t extra_hierarchies;
  double density;
  uint64_t seed;
};

void PrintTo(const Config& c, std::ostream* os) {
  *os << "chars=" << c.content_chars << " extra=" << c.extra_hierarchies
      << " density=" << c.density << " seed=" << c.seed;
}

class SnapshotIndexPropertyTest : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    const Config& config = GetParam();
    workload::GeneratorParams params;
    params.content_chars = config.content_chars;
    params.extra_hierarchies = config.extra_hierarchies;
    params.annotation_density = config.density;
    params.seed = config.seed;
    auto corpus = workload::GenerateManuscript(params);
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    corpus_ = std::make_unique<workload::SyntheticCorpus>(
        std::move(corpus).value());
    auto g = sacx::ParseToGoddag(*corpus_->cmh, corpus_->SourceViews());
    ASSERT_TRUE(g.ok()) << g.status();
    g_ = std::make_unique<goddag::Goddag>(std::move(g).value());
  }

  std::unique_ptr<workload::SyntheticCorpus> corpus_;
  std::unique_ptr<goddag::Goddag> g_;
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, SnapshotIndexPropertyTest,
    ::testing::Values(Config{500, 0, 4.0, 11}, Config{500, 2, 8.0, 12},
                      Config{2'000, 1, 2.0, 13},
                      Config{2'000, 3, 16.0, 14},
                      Config{4'000, 2, 32.0, 15}));

// P-IDX1: indexed axes == naive axes on every corpus shape.
TEST_P(SnapshotIndexPropertyTest, IndexedAxesMatchNaiveScans) {
  ExpectStrategiesAgree(*g_);
}

// P-IDX2: the O(1) relations agree with their definitions on random
// node pairs — rank order vs Goddag::Before, Dominates vs the naive
// containment + tree-ancestor disambiguation.
TEST_P(SnapshotIndexPropertyTest, RelationsMatchBruteForce) {
  SnapshotIndex index(*g_);
  std::vector<NodeId> nodes = g_->AllElements();
  nodes.push_back(g_->root());
  nodes.insert(nodes.end(), g_->leaves().begin(), g_->leaves().end());

  auto naive_tree_ancestor = [&](NodeId anc, NodeId node) {
    std::vector<NodeId> frontier;
    if (g_->is_leaf(node)) {
      for (cmh::HierarchyId h = 0; h < g_->num_hierarchies(); ++h) {
        frontier.push_back(g_->leaf_parent(node, h));
      }
    } else if (g_->is_element(node)) {
      frontier.push_back(g_->parent(node));
    }
    while (!frontier.empty()) {
      NodeId n = frontier.back();
      frontier.pop_back();
      if (n == goddag::kInvalidNode) continue;
      if (n == anc) return true;
      if (g_->is_element(n)) frontier.push_back(g_->parent(n));
    }
    return false;
  };
  auto naive_dominates = [&](NodeId outer, NodeId inner) {
    if (outer == inner) return false;
    Interval o = g_->char_range(outer);
    Interval i = g_->char_range(inner);
    if (!o.Contains(i)) return false;
    if (o == i) return naive_tree_ancestor(outer, inner);
    return true;
  };

  std::mt19937_64 rng(GetParam().seed * 7919);
  std::uniform_int_distribution<size_t> pick(0, nodes.size() - 1);
  for (int probe = 0; probe < 300; ++probe) {
    NodeId a = nodes[pick(rng)];
    NodeId b = nodes[pick(rng)];
    EXPECT_EQ(index.Before(a, b), g_->Before(a, b)) << a << " vs " << b;
    EXPECT_EQ(index.Dominates(a, b), naive_dominates(a, b))
        << a << " vs " << b;
  }
  EXPECT_EQ(index.num_ranked(), nodes.size());
}

// P-IDX3: every node's rank is unique and SortDocumentOrder matches
// Goddag::SortDocumentOrder.
TEST_P(SnapshotIndexPropertyTest, RankSortMatchesStructuralSort) {
  SnapshotIndex index(*g_);
  std::vector<NodeId> a = g_->AllElements();
  a.insert(a.end(), g_->leaves().begin(), g_->leaves().end());
  std::mt19937_64 rng(GetParam().seed * 104729);
  std::shuffle(a.begin(), a.end(), rng);
  std::vector<NodeId> b = a;
  index.SortDocumentOrder(&a);
  g_->SortDocumentOrder(&b);
  EXPECT_EQ(a, b);
}

// The pinned following/preceding semantics: equal-extent nodes (only
// possible between zero-width milestones at the same position) are
// neither following nor preceding each other — same rule for elements
// and leaves, indexed and naive alike.
TEST(SnapshotIndexRegression, ZeroWidthTwinsAreNotFollowingOrPreceding) {
  goddag::Goddag g("abcdef", 1);
  auto outer = g.InsertElement(0, "outer", {}, Interval(2, 4));
  ASSERT_TRUE(outer.ok()) << outer.status();
  auto inner = g.InsertElement(0, "inner", {}, Interval(2, 4));
  ASSERT_TRUE(inner.ok()) << inner.status();
  auto after = g.InsertElement(0, "after", {}, Interval(5, 6));
  ASSERT_TRUE(after.ok()) << after.status();
  // Deleting the covered text leaves <outer> and <inner> as zero-width
  // milestones sharing the extent [2,2).
  ASSERT_TRUE(g.DeleteText(Interval(2, 4)).ok());
  ASSERT_TRUE(g.Validate().ok()) << g.Validate();
  ASSERT_EQ(g.char_range(*outer), g.char_range(*inner));
  ASSERT_TRUE(g.char_range(*outer).empty());

  for (auto strategy :
       {xpath::AxisStrategy::kIndexed, xpath::AxisStrategy::kNaiveScan}) {
    xpath::XPathEngine engine(g);
    engine.SetAxisStrategy(strategy);
    const char* label = strategy == xpath::AxisStrategy::kIndexed
                            ? "indexed"
                            : "naive";
    // The co-extensive twin is invisible to following/preceding...
    auto f = engine.EvaluateFrom("count(following::inner)", *outer);
    ASSERT_TRUE(f.ok()) << f.status();
    EXPECT_EQ(f->ToNumber(g), 0) << label;
    auto p = engine.EvaluateFrom("count(preceding::outer)", *inner);
    ASSERT_TRUE(p.ok()) << p.status();
    EXPECT_EQ(p->ToNumber(g), 0) << label;
    // ...while genuinely later markup still follows the milestone.
    auto later = engine.EvaluateFrom("count(following::after)", *outer);
    ASSERT_TRUE(later.ok()) << later.status();
    EXPECT_EQ(later->ToNumber(g), 1) << label;
    auto before = engine.EvaluateFrom("count(preceding::outer)", *after);
    ASSERT_TRUE(before.ok()) << before.status();
    EXPECT_EQ(before->ToNumber(g), 1) << label;
    // The zero-width pair still disambiguates descendant/ancestor via
    // tree ancestorship (outer was inserted first, so it dominates).
    auto anc = engine.EvaluateFrom("count(ancestor::outer)", *inner);
    ASSERT_TRUE(anc.ok()) << anc.status();
    EXPECT_EQ(anc->ToNumber(g), 1) << label;
    auto desc = engine.EvaluateFrom("count(descendant::inner)", *outer);
    ASSERT_TRUE(desc.ok()) << desc.status();
    EXPECT_EQ(desc->ToNumber(g), 1) << label;
  }
}

// DocumentSnapshot builds one index per published version: every call
// shares it, the call that built it is told so, a new version's first
// query patches its predecessor's index, and the predecessor keeps its
// own for readers still pinning it.
TEST(DocumentSnapshotMemo, OneIndexPerVersion) {
  workload::GeneratorParams params;
  params.content_chars = 600;
  auto corpus = workload::GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  auto g = sacx::ParseToGoddag(*corpus->cmh, corpus->SourceViews());
  ASSERT_TRUE(g.ok()) << g.status();
  auto bytes = storage::Save(*g);
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  service::DocumentStore store;
  ASSERT_TRUE(store.RegisterBytes("doc", *bytes).ok());
  auto snap = store.GetSnapshot("doc");
  ASSERT_TRUE(snap.ok());

  service::DocumentSnapshot::IndexBuild build;
  std::shared_ptr<const SnapshotIndex> index = (*snap)->Index(&build);
  EXPECT_TRUE(build.built);
  EXPECT_FALSE(build.patched);  // a fresh registration has no base
  service::DocumentSnapshot::IndexBuild again;
  EXPECT_EQ((*snap)->Index(&again), index);
  EXPECT_FALSE(again.built);
  xpath::XPathEngine engine(*(*snap)->goddag);
  engine.UseSnapshotIndex(index);
  auto v = engine.Evaluate("count(//w)");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_GT(v->ToNumber(*(*snap)->goddag), 0);

  // Publish a new version; its snapshot builds its own index.
  auto txn = store.BeginEdit("doc");
  ASSERT_TRUE(txn.ok()) << txn.status();
  ASSERT_TRUE(txn->session().Select(Interval(10, 30)).ok());
  ASSERT_TRUE(txn->session().Apply(2, "a0").ok());
  service::QueryService service(&store);
  service::EditResponse committed =
      service
          .SubmitCommit("doc", std::make_unique<service::EditTransaction>(
                                   std::move(txn).value()))
          .get();
  ASSERT_TRUE(committed.ok()) << committed.status;
  auto snap2 = store.GetSnapshot("doc");
  ASSERT_TRUE(snap2.ok());
  ASSERT_NE((*snap2).get(), (*snap).get());
  service::DocumentSnapshot::IndexBuild next;
  EXPECT_NE((*snap2)->Index(&next), index);
  // The successor's first cold index patched the predecessor's copy
  // instead of rebuilding from scratch (the commit carried a delta).
  EXPECT_TRUE(next.built);
  EXPECT_TRUE(next.patched);
  EXPECT_GT(next.pools_shared, 0u);
  // The superseded snapshot keeps its index for as long as it lives.
  EXPECT_EQ((*snap)->Index(), index);
  auto old_v = engine.Evaluate("count(//w)");
  ASSERT_TRUE(old_v.ok()) << old_v.status();
  EXPECT_EQ(old_v->ToNumber(*(*snap)->goddag),
            v->ToNumber(*(*snap)->goddag));
}

// ---------------------------------------------------- the fused `//T` step
//
// Compiled `//T` (T a name or `*`) is answered by the indexed engine as
// one scan of the T pool (xpath::StepPlan::fuse_with_child,
// SnapshotIndex::ChildrenOfDominated); the naive engine still evaluates
// descendant-or-self::node() and child::T literally and is the oracle.

/// The cxbench manuscript: 20k chars, seed 3, built the same way.
struct Manuscript {
  workload::SyntheticCorpus corpus;
  std::unique_ptr<goddag::Goddag> g;
};

Manuscript MakeManuscript20k() {
  workload::GeneratorParams params;
  params.content_chars = 20'000;
  params.seed = 3;
  auto corpus = workload::GenerateManuscript(params);
  EXPECT_TRUE(corpus.ok()) << corpus.status();
  Manuscript ms{std::move(corpus).value(), nullptr};
  auto g = goddag::Builder::Build(*ms.corpus.doc);
  EXPECT_TRUE(g.ok()) << g.status();
  ms.g = std::make_unique<goddag::Goddag>(std::move(g).value());
  return ms;
}

/// A TEI document with the overlap conventions the importer turns into
/// concurrent hierarchies: pb/lb/folio milestones firing mid-sentence, a
/// part="I|M|F" <q> chain across paragraphs, next=/prev= <said> pairs
/// and standOff spans.
std::string MakeTeiSample() {
  static constexpr const char* kWords[] = {
      "hwaet", "we", "gardena", "in", "geardagum", "thrym", "hu", "tha",
      "ellen"};
  std::string out =
      "<TEI><teiHeader><title>sample</title></teiHeader><text><body>";
  size_t content = 0, word = 0, lb = 0, pb = 0, folio = 0, s_n = 0;
  auto words = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (content >= 64 * lb) out += StrFormat("<lb n=\"%zu\"/>", ++lb);
      if (content >= 700 * pb) out += StrFormat("<pb n=\"%zu\"/>", ++pb);
      if (content >= 1900 * folio) {
        out += StrFormat("<milestone unit=\"folio\" n=\"%zu\"/>", ++folio);
      }
      std::string w = StrCat(kWords[word++ % 9], " ");
      out += w;
      content += w.size();
    }
  };
  size_t said = 0;
  for (size_t d = 1; d <= 3; ++d) {
    out += StrFormat("<div n=\"%zu\">", d);
    for (size_t p = 1; p <= 4; ++p) {
      out += StrFormat("<p n=\"%zu\">", p);
      for (size_t s = 1; s <= 5; ++s) {
        out += StrFormat("<s n=\"%zu\">", ++s_n);
        words(3);
        if (p == 2 && s == 5) {
          out += "<q part=\"I\">";
          words(4);
          out += "</q>";
        } else if (p == 3 && s <= 2) {
          out += s == 1 ? "<q part=\"M\">" : "<q part=\"F\">";
          words(3);
          out += "</q>";
        } else if (p == 4 && s == 2) {
          out += StrFormat("<said xml:id=\"sd%zu\" next=\"#sd%zu\">",
                           said + 1, said + 2);
          words(4);
          out += "</said>";
        } else if (p == 4 && s == 4) {
          out += StrFormat("<said xml:id=\"sd%zu\" prev=\"#sd%zu\">",
                           said + 2, said + 1);
          said += 2;
          words(4);
          out += "</said>";
        }
        words(6);
        out += "</s>";
      }
      out += "</p>";
    }
    out += "</div>";
  }
  out += "</body></text><standOff>";
  for (size_t from = 40; from + 60 < content; from += 170) {
    out += StrFormat("<span from=\"%zu\" to=\"%zu\" ana=\"name\"/>", from,
                     from + 60);
  }
  out += "</standOff></TEI>";
  return out;
}

/// The context nodes of the relative sweep: the root, the first and a
/// middle element of each tag listed, and a middle leaf.
std::vector<NodeId> SweepContexts(const goddag::Goddag& g,
                                  std::initializer_list<const char*> tags) {
  std::vector<NodeId> contexts{g.root()};
  for (const char* tag : tags) {
    std::vector<NodeId> nodes = g.ElementsByTag(tag);
    if (nodes.empty()) continue;
    contexts.push_back(nodes.front());
    contexts.push_back(nodes[nodes.size() / 2]);
  }
  if (g.num_leaves() > 0) contexts.push_back(g.leaf_at(g.num_leaves() / 2));
  return contexts;
}

/// Asserts the fused indexed engine and the literal naive one give the
/// same answer — the same node ids for node-sets, the same string
/// otherwise — for every XPath query (from the document node and, for
/// `relative`, from every context) and every XQuery.
void ExpectFusedMatchesNaive(const goddag::Goddag& g,
                             const std::vector<std::string>& absolute,
                             const std::vector<std::string>& relative,
                             const std::vector<NodeId>& contexts,
                             const std::vector<std::string>& xqueries) {
  auto index = std::make_shared<const SnapshotIndex>(g);
  xpath::XPathEngine indexed(g);
  indexed.UseSnapshotIndex(index);
  xpath::XPathEngine naive(g);
  naive.SetAxisStrategy(xpath::AxisStrategy::kNaiveScan);
  auto expect_same = [&](const std::string& query, NodeId ctx) {
    auto a = ctx == goddag::kInvalidNode ? indexed.Evaluate(query)
                                         : indexed.EvaluateFrom(query, ctx);
    auto b = ctx == goddag::kInvalidNode ? naive.Evaluate(query)
                                         : naive.EvaluateFrom(query, ctx);
    ASSERT_TRUE(a.ok()) << query << ": " << a.status();
    ASSERT_TRUE(b.ok()) << query << ": " << b.status();
    ASSERT_EQ(a->is_node_set(), b->is_node_set()) << query;
    if (a->is_node_set()) {
      EXPECT_EQ(a->nodes(), b->nodes()) << query << " from node " << ctx;
    } else {
      EXPECT_EQ(a->ToString(g), b->ToString(g)) << query << " from " << ctx;
    }
  };
  for (const std::string& query : absolute) {
    expect_same(query, goddag::kInvalidNode);
  }
  for (NodeId ctx : contexts) {
    for (const std::string& query : relative) expect_same(query, ctx);
  }

  xquery::XQueryEngine xq_indexed(g);
  xq_indexed.UseSnapshotIndex(index);
  xquery::XQueryEngine xq_naive(g);
  xq_naive.SetAxisStrategy(xpath::AxisStrategy::kNaiveScan);
  for (const std::string& query : xqueries) {
    auto a = xq_indexed.Run(query);
    auto b = xq_naive.Run(query);
    ASSERT_TRUE(a.ok()) << query << ": " << a.status();
    ASSERT_TRUE(b.ok()) << query << ": " << b.status();
    EXPECT_EQ(*a, *b) << query;
  }
}

TEST(FusedDescendantChild, CompilerMarksOnlyNamedChildAfterBareDescendant) {
  auto fused = [](const char* query, size_t step) {
    auto compiled = xpath::Compile(query);
    EXPECT_TRUE(compiled.ok()) << compiled.status();
    return (*compiled)->expr().path.steps.at(step).plan.fuse_with_child;
  };
  EXPECT_TRUE(fused("//w", 0));
  EXPECT_TRUE(fused("//*", 0));
  EXPECT_TRUE(fused("//w[1]", 0));
  EXPECT_TRUE(fused("//child(physical)::line", 0));
  EXPECT_TRUE(fused("//line//w", 2));
  EXPECT_FALSE(fused("//line//w", 1));
  EXPECT_FALSE(fused("//text()", 0));
  EXPECT_FALSE(fused("//node()", 0));
  EXPECT_FALSE(fused("//descendant::w", 0));
  EXPECT_FALSE(fused("/descendant-or-self::node()[1]/w", 0));
  EXPECT_FALSE(fused("/descendant-or-self(physical)::node()/w", 0));
  EXPECT_FALSE(fused("/descendant-or-self::*/w", 0));
}

TEST(FusedDescendantChild, ManuscriptMatchesNaive) {
  Manuscript ms = MakeManuscript20k();
  const goddag::Goddag& g = *ms.g;
  std::vector<std::string> absolute = {
      "//w", "//line", "//s", "//page", "//a0", "//*",
      StrCat("//", g.root_tag()), "//w[1]", "//line[last()]",
      "//w[position() >= 3]", "//s[1]", "//w[last()]",
      // A number-valued predicate is a position: a w survives when its
      // length equals its place among its parent's w children.
      "//w[string-length(.)]", "//child(physical)::line",
      "//child(linguistic)::*", "count(//child(physical)::w)",
      "//s[count(.//w) > 12]", "//line[.//w]", "//page//line[2]",
      "//*[last()]", "//w/@*", "count(//line/@n//w)"};
  // Per-parent positions after a filtering predicate (one k each: the
  // naive oracle scans every node per w).
  absolute.push_back("//w[overlapping::line[@n='40']][8]");
  absolute.push_back("//w[ancestor::s[@n='171']][position() >= 8]");
  for (size_t k : {3, 40, 171}) {
    absolute.push_back(
        StrFormat("count(//line[@n >= %zu and @n <= %zu]//w)", k, k + 3));
  }
  ExpectFusedMatchesNaive(
      g, absolute,
      {".//w", ".//*", ".//w[1]", ".//w[last()]", ".//line[2]",
       "count(.//child(linguistic)::*)"},
      SweepContexts(g, {"page", "line", "s", "w"}),
      {"for $s in //s[@n >= 3 and @n < 6] return {count($s//w)}",
       "let $v := //page[2] return $v//line[position() > 17]",
       "for $l in //line[@n='9'] return {string($l//w[1])}"});
}

TEST(FusedDescendantChild, TeiImportMatchesNaive) {
  auto imported = ingest::Import(MakeTeiSample(), {ingest::Format::kTei});
  ASSERT_TRUE(imported.ok()) << imported.status();
  const goddag::Goddag& g = *imported->doc.g;
  ASSERT_GT(g.ElementsByTag("q").size(), 0u);
  ASSERT_GT(g.ElementsByTag("span").size(), 0u);
  ExpectFusedMatchesNaive(
      g,
      {"//s", "//p", "//line", "//page", "//q", "//said", "//span", "//*",
       StrCat("//", g.root_tag()), "//TEI", "//s[1]", "//p[last()]",
       "//s[position() >= 3]", "//s[string-length(.) > 40]",
       "//div//s[2]", "//child(line)::line", "//child(text)::*",
       "//q[overlapping::s[@n='10']][1]",
       "//s[overlapping::line[@n='12']][2]",
       "//s[ancestor::p[@n='2']][position() >= 4]",
       "//p[.//said]", "count(//line[@n >= 3 and @n <= 9]//s)"},
      {".//s", ".//*", ".//s[last()]", "count(.//child(text)::*)"},
      SweepContexts(g, {"div", "p", "s", "line"}),
      {"for $p in //p return {count($p//s)}",
       "let $v := //div[2] return $v//s[1]"});
}

// `//` keeps its literal GODDAG meaning — children of the context or of
// nodes it dominates — which is not the extent-based descendant axis: a
// w inside a line's extent is the child of an s, not of the line.
TEST(FusedDescendantChild, DoubleSlashIsNotExtentDescendant) {
  Manuscript ms = MakeManuscript20k();
  auto index = std::make_shared<const SnapshotIndex>(*ms.g);
  for (auto strategy :
       {xpath::AxisStrategy::kIndexed, xpath::AxisStrategy::kNaiveScan}) {
    xpath::XPathEngine engine(*ms.g);
    engine.UseSnapshotIndex(index);
    engine.SetAxisStrategy(strategy);
    auto slash = engine.Evaluate("count(//line[@n >= 172 and @n <= 175]//w)");
    ASSERT_TRUE(slash.ok()) << slash.status();
    EXPECT_EQ(slash->ToNumber(*ms.g), 0);
    auto extent = engine.Evaluate(
        "count(//line[@n >= 172 and @n <= 175]/descendant::w)");
    ASSERT_TRUE(extent.ok()) << extent.status();
    EXPECT_EQ(extent->ToNumber(*ms.g), 36);
  }
  // The indexed engine answered `//w` as one step over the w pool.
  xpath::XPathEngine engine(*ms.g);
  engine.UseSnapshotIndex(index);
  ASSERT_TRUE(engine.Evaluate("count(//w)").ok());
  EXPECT_EQ(engine.axis_stats().indexed_axes, 1u);
  EXPECT_EQ(engine.axis_stats().pool_nodes, ms.g->ElementsByTag("w").size());
}

// An unknown hierarchy on the child step errors exactly when the
// literal pair would: when some context is not an attribute, and never
// when the input is empty or all attributes.
TEST(FusedDescendantChild, UnknownHierarchyErrorsOnlyOnNonEmptyInput) {
  Manuscript ms = MakeManuscript20k();
  auto index = std::make_shared<const SnapshotIndex>(*ms.g);
  for (auto strategy :
       {xpath::AxisStrategy::kIndexed, xpath::AxisStrategy::kNaiveScan}) {
    xpath::XPathEngine engine(*ms.g);
    engine.UseSnapshotIndex(index);
    engine.SetAxisStrategy(strategy);
    for (const char* query :
         {"//child(nosuch)::w", "//line//child(nosuch)::w",
          "count(//s[.//child(nosuch)::w])"}) {
      auto v = engine.Evaluate(query);
      ASSERT_FALSE(v.ok()) << query;
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << query;
    }
    for (const char* query :
         {"count(//nosuchtag//child(nosuch)::w)",
          "count(//line/@n//child(nosuch)::w)"}) {
      auto v = engine.Evaluate(query);
      ASSERT_TRUE(v.ok()) << query << ": " << v.status();
      EXPECT_EQ(v->ToNumber(*ms.g), 0) << query;
    }
    xquery::XQueryEngine xq(*ms.g);
    xq.UseSnapshotIndex(index);
    xq.SetAxisStrategy(strategy);
    auto empty = xq.Run("let $v := //nosuchtag return {count($v//child(nosuch)::w)}");
    ASSERT_TRUE(empty.ok()) << empty.status();
    EXPECT_EQ(*empty, std::vector<std::string>{"0"});
    EXPECT_FALSE(xq.Run("let $v := //s return {count($v//child(nosuch)::w)}")
                     .ok());
  }
}

}  // namespace
}  // namespace cxml
