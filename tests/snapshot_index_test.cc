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
#include <utility>
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

/// A seed-3 synthetic manuscript built the way cxbench builds its own
/// (MakeManuscript20k: the 20k-char one).
struct Manuscript {
  workload::SyntheticCorpus corpus;
  std::unique_ptr<goddag::Goddag> g;
};

Manuscript MakeManuscript(size_t content_chars) {
  workload::GeneratorParams params;
  params.content_chars = content_chars;
  params.seed = 3;
  auto corpus = workload::GenerateManuscript(params);
  EXPECT_TRUE(corpus.ok()) << corpus.status();
  Manuscript ms{std::move(corpus).value(), nullptr};
  auto g = goddag::Builder::Build(*ms.corpus.doc);
  EXPECT_TRUE(g.ok()) << g.status();
  ms.g = std::make_unique<goddag::Goddag>(std::move(g).value());
  return ms;
}

Manuscript MakeManuscript20k() { return MakeManuscript(20'000); }

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
                             const std::vector<std::string>& xqueries,
                             xpath::AxisStats* indexed_stats = nullptr) {
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
  if (indexed_stats != nullptr) {
    const xpath::AxisStats& x = indexed.axis_stats();
    const xpath::AxisStats& y = xq_indexed.axis_stats();
    indexed_stats->filter_preds = x.filter_preds + y.filter_preds;
    indexed_stats->exists_preds = x.exists_preds + y.exists_preds;
    indexed_stats->restricted_pools = x.restricted_pools + y.restricted_pools;
    indexed_stats->semijoins = x.semijoins + y.semijoins;
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


// ------------------------------------------------- compiled predicates
//
// Under kIndexed a compiled step predicate that is an attribute filter
// or an existential step (xpath::PredicatePlan) runs without EvalExpr on
// element and root candidates. An existential step over no more
// candidates than its own pool has members asks the SnapshotIndex
// collector for each candidate's window; over more, it builds R, the
// pool's members passing its filters (SnapshotIndex::Subset), and marks
// the candidates' pool from each r in R with the inverse collector. The
// naive engine takes no plan and is the oracle.

TEST(PredicatePlans, CompilerClassifiesPredicates) {
  using Kind = xpath::PredicatePlan::Kind;
  // The plan of the last step's only predicate.
  auto plan = [](const std::string& query) {
    auto compiled = xpath::Compile(query);
    EXPECT_TRUE(compiled.ok()) << query << ": " << compiled.status();
    const xpath::Step& step = (*compiled)->expr().path.steps.back();
    EXPECT_EQ(step.predicates.size(), 1u) << query;
    return step.plan.predicates.empty() ? Kind::kGeneric
                                        : step.plan.predicates[0].kind;
  };
  for (const char* query :
       {"//s[@n='3']", "//s['3' = @n]", "//s[@n != 3]", "//s[3 < @n]",
        "//s[@n <= '3']", "//s[@n > 2.5]", "//s[@n >= 3]", "//s[@n]",
        "//s[not(@n)]", "//s[@n > 2 and @n < 9 or not(@x = 'y')]",
        "//s[attribute::n = '3']", "/descendant::s[@n='3']",
        "//line/overlapping::s[@n]"}) {
    EXPECT_EQ(plan(query), Kind::kAttributeFilter) << query;
  }
  for (const char* query :
       {"//w[ancestor::s[@n='3']]", "//w[overlapping::line]",
        "//w[overlapping-start(physical)::*[@n > 3]]",
        "//w[overlapping-end::line]", "//w[descendant::a0]",
        "//w[descendant-or-self::*]", "//w[ancestor-or-self::s[@n][not(@x)]]",
        "//w[following::line[@n='3']]", "//w[preceding::s]"}) {
    EXPECT_EQ(plan(query), Kind::kExists) << query;
  }
  for (const char* query :
       {"//w[1]", "//w[last()]", "//w[position() >= 3]", "//s[@n = true()]",
        "//s[@n = $v]", "//w[contains(., 'a')]", "//w[ancestor::s/w]",
        "//w[ancestor::s[1]]", "//w[ancestor::s[@n = $v]]",
        "//w[ancestor::node()]", "//w[ancestor::text()]",
        "//w[child::line]", "//w[parent::s[@n]]", "//w[self::w]",
        "//w[/descendant::s]", "//s[@n = @m]", "//s[@n = -3]",
        "//s[not(@n, @m)]", "//s[attribute(physical)::n = '3']",
        "//s[@*]", "//s[@n[. = '3']]", "//s[./@n]", "//s[@n + 1 = 4]"}) {
    EXPECT_EQ(plan(query), Kind::kGeneric) << query;
  }
  // Literals on the left are mirrored; string literals compare as
  // strings only for = and !=.
  auto filter = [](const std::string& query) {
    auto compiled = xpath::Compile(query);
    EXPECT_TRUE(compiled.ok()) << compiled.status();
    return (*compiled)->expr().path.steps.back().plan.predicates.at(0).filter;
  };
  xpath::AttrFilter mirrored = filter("//s['3' < @n]");
  EXPECT_EQ(mirrored.kind, xpath::AttrFilter::Kind::kCompare);
  EXPECT_EQ(mirrored.op, xpath::AttrFilter::Op::kGt);
  EXPECT_FALSE(mirrored.by_string);
  EXPECT_EQ(mirrored.number, 3);
  xpath::AttrFilter by_string = filter("//s['3' != @n]");
  EXPECT_EQ(by_string.op, xpath::AttrFilter::Op::kNe);
  EXPECT_TRUE(by_string.by_string);
  EXPECT_EQ(by_string.text, "3");
  // Plans leave the canonical text (the cache identity) alone.
  auto planned = xpath::Compile("//w[ancestor::s[@n='3']][2]");
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ((*planned)->canonical(),
            xpath::ToString((*planned)->expr()));
}

// A restricted pool answers every collector as the full pool does,
// minus the members it dropped.
TEST(PredicatePlans, SubsetPoolCollectorsMatchFilteredPool) {
  Manuscript ms = MakeManuscript20k();
  const goddag::Goddag& g = *ms.g;
  SnapshotIndex index(g);
  std::mt19937 rng(17);
  std::vector<NodeId> contexts = SweepContexts(g, {"page", "line", "s", "w"});
  for (const char* tag : {"s", "line", "page", ""}) {
    const SnapshotIndex::Pool& pool = index.Elements(goddag::kInvalidHierarchy,
                                                     tag);
    ASSERT_FALSE(pool.empty()) << tag;
    for (int density : {0, 1, 4, 100}) {
      std::vector<char> keep(pool.size());
      for (char& k : keep) {
        k = static_cast<int>(rng() % 100) < density ? 1 : 0;
      }
      SnapshotIndex::Pool sub = SnapshotIndex::Subset(pool, keep);
      std::vector<NodeId> kept;
      for (size_t i = 0; i < keep.size(); ++i) {
        if (keep[i]) kept.push_back(pool.nodes[i]);
      }
      ASSERT_EQ(sub.nodes, kept);
      auto only_kept = [&](std::vector<NodeId> v) {
        v.erase(std::remove_if(v.begin(), v.end(),
                               [&](NodeId n) {
                                 return !std::binary_search(
                                     kept.begin(), kept.end(), n,
                                     [&](NodeId a, NodeId b) {
                                       return index.Before(a, b);
                                     });
                               }),
                v.end());
        return v;
      };
      for (NodeId ctx : contexts) {
        using Collector = void (SnapshotIndex::*)(
            const SnapshotIndex::Pool&, NodeId, std::vector<NodeId>*) const;
        for (Collector collect :
             {&SnapshotIndex::Dominated, &SnapshotIndex::Dominating,
              &SnapshotIndex::Contained, &SnapshotIndex::FollowingOf,
              &SnapshotIndex::PrecedingOf,
              &SnapshotIndex::ChildrenOfDominated}) {
          std::vector<NodeId> full, part;
          (index.*collect)(pool, ctx, &full);
          (index.*collect)(sub, ctx, &part);
          EXPECT_EQ(part, only_kept(full)) << tag << " ctx " << ctx;
        }
        std::vector<NodeId> full, part;
        index.OverlappingOf(pool, g.char_range(ctx), ctx, &full);
        index.OverlappingOf(sub, g.char_range(ctx), ctx, &part);
        EXPECT_EQ(part, only_kept(full)) << tag << " ctx " << ctx;
      }
    }
  }
}

TEST(PredicatePlans, ManuscriptMatchesNaive) {
  Manuscript ms = MakeManuscript20k();
  const goddag::Goddag& g = *ms.g;
  // Candidates are mostly lines and sentences: the naive oracle scans
  // every element per candidate. FusedDescendantChild covers `//w`.
  std::vector<std::string> absolute = {
      // Every operator, string and number literals on either side.
      "//line[@n = '40']", "//line['40' = @n]", "//line[@n != '40']",
      "//line['40' != @n]", "//line[@n = 40]", "//line[40 = @n]",
      "//line[@n != 40]", "//line[40 != @n]", "//line[@n < 40]",
      "//line[40 < @n]", "//line[@n <= '40']", "//line['40' <= @n]",
      "//line[@n > 300]", "//line[300 > @n]", "//line[@n >= '300']",
      "//line['300' >= @n]", "//line[@n < 'x']", "//line[@n != 'x']",
      "//line[@n = '040']", "//line[@n = 40.0]", "//line[@n = '40.0']",
      "count(//*[@n = '3'])", "count(//*[@n > 330])",
      // Missing attributes make every comparison false.
      "count(//w[@n = '1'])", "count(//w[@n != '1'])", "count(//w[@n < 1])",
      "count(//w[not(@n)])", "//s[@missing]", "count(//line[@n and @missing])",
      // and / or / not.
      "//line[@n > 10 and @n < 20 or @n = '300']",
      "//line[not(@n > 10) and not(@n = '1')]",
      "//line[(@n = '1' or @n = '2') and not(@n = '2')]",
      "//page[not(not(@n = '2'))]", "//line[@n > 5][@n < 9]",
      // Existential steps on every pool-backed axis; line candidates
      // outnumber the s pool, so the s steps run from the small side.
      "//page[descendant::line[@n = '45']]",
      "//s[descendant-or-self::s[@n = '5']]",
      "//line[ancestor::page[@n = '2']]",
      "//line[ancestor-or-self::line[@n = '7']]",
      "//s[overlapping::line[@n = '40']]",
      "//s[overlapping-start::line[@n >= 40]]",
      "//s[overlapping-end::line[@n <= 40]]", "count(//s[overlapping::line])",
      "//line[following::s[@n = '3']]", "//line[preceding::s[@n = '250']]",
      // Hierarchy qualifiers, `*`, and a root that matches T.
      "//line[overlapping(linguistic)::s[@n > 100]]",
      "//s[ancestor(physical)::page[@n = '3']]",
      "//line[ancestor-or-self::*[@n = '7']]",
      "//page[descendant::*[not(@n)]]", "count(//s[ancestor::*])",
      "count(//s[ancestor::r])", "/r[descendant::line[@n = '5']]",
      "//r[descendant::s[@n = '3']]", "//r[@n]", "//r[not(@n)]",
      "//r[ancestor-or-self::*[not(@n)]]", "//r[ancestor::*]",
      "count(/r/*[overlapping::s[@n = '3']])",
      // Attribute candidates keep the generic loop.
      "count(//line/@n[ancestor::page[@n = '2']])",
      "count(//page/@n[@x])", "count(//page/@n[. = '4'])",
      "count(//page/@n[descendant-or-self::*])",
      // Planned predicates followed by positional ones, in `//T` (per
      // parent) and in /descendant::T.
      "//line[ancestor::page[@n > 1]][2]",
      "//line[overlapping::s[@n > 50]][last()]",
      "/descendant::line[overlapping::s[@n > 50]][position() < 3]",
      "//line[@n > 100][1]", "//line[@n > 300][last()]",
      "/descendant::s[@n = '7']/descendant::w[1]",
      "//s[@n > 250][position() = 2]",
      "//page[@n = '2']/line[overlapping::s][3]",
      "//line[position() > 300][@n < 305]"};
  xpath::AxisStats stats;
  ExpectFusedMatchesNaive(
      g, absolute,
      {"ancestor-or-self::*[@n]", "self::node()[ancestor::s[@n = '3']]",
       "self::*[overlapping::line]", "self::node()[@n]",
       "ancestor::*[overlapping::line[@n = '4']]",
       "following-sibling::*[@n > 3]", "parent::*[descendant::w]",
       "count(preceding::line[@n < 10])",
       "self::*[following::line[@n = '300']]"},
      SweepContexts(g, {"page", "line", "s", "w"}),
      {"for $s in //s[@n >= 3 and @n < 6] "
       "return {count($s/descendant::w[ancestor::s[@n = '4']])}",
       "for $l in //line[overlapping::s[@n = '10']] return {string($l/@n)}",
       "let $v := //page[@n = '2'] "
       "return {count($v/line[overlapping::s[@n > 20]][2])}"},
      &stats);
  // The sweep ran every plan, the semi-join from either side included.
  EXPECT_GT(stats.filter_preds, 0u);
  EXPECT_GT(stats.exists_preds, 0u);
  EXPECT_GT(stats.restricted_pools, 0u);
  EXPECT_GT(stats.semijoins, 0u);
}

TEST(PredicatePlans, TeiImportMatchesNaive) {
  auto imported = ingest::Import(MakeTeiSample(), {ingest::Format::kTei});
  ASSERT_TRUE(imported.ok()) << imported.status();
  const goddag::Goddag& g = *imported->doc.g;
  const std::string root = g.root_tag();
  xpath::AxisStats stats;
  ExpectFusedMatchesNaive(
      g,
      {"//s[@n = '10']", "//p[@n != '2']", "//s['5' < @n]", "//s[@n >= 50]",
       "//q[@part = 'M']", "//q[not(@part = 'I')]", "//said[@next]",
       "//said[not(@prev)]", "//line[@n <= 3 or @n > 30]",
       "//q[overlapping::s[@n = '10']]",
       "//s[overlapping-start::line[@n > 3]]", "//s[overlapping-end::line]",
       "//s[ancestor::p[@n = '2']]", "//s[ancestor-or-self::*[@n = '2']]",
       "//p[descendant::said[@next]]", "//s[following::q[@part = 'F']]",
       "//s[preceding::said]", "//span[overlapping::s[@n <= 4]]",
       "//line[overlapping(text)::s[@n = '7']]",
       "count(//s[ancestor::" + root + "])",
       "//" + root + "[descendant::q[@part = 'F']]",
       "//s[ancestor::p[@n = '2']][2]",
       "/descendant::s[overlapping::line[@n = '4']][last()]",
       "count(//*[overlapping::said])", "count(//s/@n[ancestor::p])"},
      {"ancestor-or-self::*[@n]", "self::*[overlapping::line]",
       "ancestor::*[descendant::said]", "self::node()[@n > 2]"},
      SweepContexts(g, {"div", "p", "s", "line"}),
      {"for $p in //p[@n = '2'] "
       "return {count($p/descendant::s[overlapping::line])}"},
      &stats);
  EXPECT_GT(stats.filter_preds, 0u);
  EXPECT_GT(stats.exists_preds, 0u);
}

// An unknown hierarchy inside a predicate errors exactly when the
// literal evaluation would: when some candidate reaches the step, and
// never on empty input.
TEST(PredicatePlans, UnknownHierarchyErrorsOnlyOnNonEmptyInput) {
  Manuscript ms = MakeManuscript20k();
  auto index = std::make_shared<const SnapshotIndex>(*ms.g);
  for (auto strategy :
       {xpath::AxisStrategy::kIndexed, xpath::AxisStrategy::kNaiveScan}) {
    xpath::XPathEngine engine(*ms.g);
    engine.UseSnapshotIndex(index);
    engine.SetAxisStrategy(strategy);
    for (const char* query :
         {"//line[overlapping(nosuch)::s]",
          "count(//line[ancestor(nosuch)::page[@n = '1']])",
          "//s[@n = '3'][following(nosuch)::line]",
          "count(//line/@n[ancestor(nosuch)::page])"}) {
      auto v = engine.Evaluate(query);
      ASSERT_FALSE(v.ok()) << query;
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << query;
      EXPECT_NE(v.status().message().find("nosuch"), std::string::npos)
          << v.status();
    }
    for (const char* query :
         {"count(//nosuchtag[overlapping(nosuch)::s])",
          "count(//line[@n = '99999'][ancestor(nosuch)::page])"}) {
      auto v = engine.Evaluate(query);
      ASSERT_TRUE(v.ok()) << query << ": " << v.status();
      EXPECT_EQ(v->ToNumber(*ms.g), 0) << query;
    }
    xquery::XQueryEngine xq(*ms.g);
    xq.UseSnapshotIndex(index);
    xq.SetAxisStrategy(strategy);
    auto empty = xq.Run(
        "let $v := //nosuchtag return {count($v[overlapping(nosuch)::s])}");
    ASSERT_TRUE(empty.ok()) << empty.status();
    EXPECT_EQ(*empty, std::vector<std::string>{"0"});
    EXPECT_FALSE(xq.Run("for $s in //s[@n = '1'] "
                        "return {count($s/self::*[overlapping(nosuch)::line])}")
                     .ok());
  }
}

// The semi-join's side, decided once per filter pass: `//w[axis::S[f]]`
// has more w candidates than the S pool has members, so it builds R
// once and marks the w pool from each r in R; a one-candidate query
// checks its candidate.
TEST(PredicatePlans, RestrictedPoolCounts) {
  Manuscript ms = MakeManuscript20k();
  const goddag::Goddag& g = *ms.g;
  auto index = std::make_shared<const SnapshotIndex>(g);
  const uint64_t words = g.ElementsByTag("w").size();
  const uint64_t sentences = g.ElementsByTag("s").size();
  const uint64_t lines = g.ElementsByTag("line").size();
  ASSERT_GT(words, sentences);
  ASSERT_GT(words, lines);

  xpath::XPathEngine engine(g);
  engine.UseSnapshotIndex(index);
  auto semijoin = xpath::Compile("count(//w[ancestor::s[@n = '171']])");
  ASSERT_TRUE(semijoin.ok());
  for (uint64_t round = 1; round <= 2; ++round) {
    auto v = engine.Evaluate(**semijoin);
    ASSERT_TRUE(v.ok()) << v.status();
    EXPECT_GT(v->ToNumber(g), 0);
    EXPECT_EQ(engine.axis_stats().restricted_pools, round);
    EXPECT_EQ(engine.axis_stats().semijoins, round);
    EXPECT_EQ(engine.axis_stats().exists_preds, round * words);
  }
  // The `//w` scan, then one probe from the one s in R: the w pool once
  // for the scan, the s pool once to build R, the w pool once more for
  // the probe.
  engine.ResetAxisStats();
  ASSERT_TRUE(engine.Evaluate(**semijoin).ok());
  EXPECT_EQ(engine.axis_stats().indexed_axes, 2u);
  EXPECT_EQ(engine.axis_stats().pool_nodes, words + sentences + words);
  EXPECT_EQ(engine.axis_stats().filter_preds, 0u);

  // The same for the overlapping axis: one line in R, one probe.
  engine.ResetAxisStats();
  auto overlap = engine.Evaluate("count(//w[overlapping::line[@n = '60']])");
  ASSERT_TRUE(overlap.ok()) << overlap.status();
  EXPECT_EQ(engine.axis_stats().indexed_axes, 2u);
  EXPECT_EQ(engine.axis_stats().pool_nodes, words + lines + words);
  EXPECT_LT(engine.axis_stats().pool_nodes, 10'000u);
  EXPECT_EQ(engine.axis_stats().semijoins, 1u);
  EXPECT_EQ(engine.axis_stats().restricted_pools, 1u);

  // Without a filter R is the whole line pool: one probe per line and
  // no restricted pool.
  engine.ResetAxisStats();
  ASSERT_TRUE(engine.Evaluate("count(//w[overlapping::line])").ok());
  EXPECT_EQ(engine.axis_stats().indexed_axes, 1 + lines);
  EXPECT_EQ(engine.axis_stats().semijoins, 1u);
  EXPECT_EQ(engine.axis_stats().restricted_pools, 0u);

  // following: one probe from the latest-starting s, however many pass.
  engine.ResetAxisStats();
  ASSERT_TRUE(engine.Evaluate("count(//w[following::s[@n > 3]])").ok());
  EXPECT_EQ(engine.axis_stats().indexed_axes, 2u);

  // One candidate never outnumbers the w pool.
  engine.ResetAxisStats();
  auto single = engine.Evaluate("count(//line[@n = '38'][overlapping::w[@n]])");
  ASSERT_TRUE(single.ok()) << single.status();
  EXPECT_EQ(single->ToNumber(g), 0);
  EXPECT_EQ(engine.axis_stats().filter_preds, lines);
  EXPECT_EQ(engine.axis_stats().exists_preds, 1u);
  EXPECT_EQ(engine.axis_stats().restricted_pools, 0u);
  EXPECT_EQ(engine.axis_stats().semijoins, 0u);

  // The naive oracle takes no plan.
  xpath::XPathEngine naive(g);
  naive.SetAxisStrategy(xpath::AxisStrategy::kNaiveScan);
  ASSERT_TRUE(naive.Evaluate("count(//line[@n = '38'][overlapping::w])").ok());
  EXPECT_EQ(naive.axis_stats().filter_preds, 0u);
  EXPECT_EQ(naive.axis_stats().exists_preds, 0u);
  EXPECT_EQ(naive.axis_stats().restricted_pools, 0u);
  EXPECT_EQ(naive.axis_stats().semijoins, 0u);
}

/// `[axis::S]` and `[axis::S[filter]]` for every existential axis (the
/// last one qualified by `hierarchy`) after each candidate path, each
/// bare and with a trailing positional predicate, `[2]` or
/// `[position() >= 3]` in turn.
std::vector<std::string> ExistentialSweep(
    const std::vector<std::string>& paths, const std::string& s,
    const std::string& hierarchy, const std::string& filter) {
  const std::string axes[] = {"ancestor",
                              "ancestor-or-self",
                              "descendant",
                              "descendant-or-self",
                              "following",
                              "preceding",
                              "overlapping",
                              "overlapping-start",
                              "overlapping-end",
                              StrCat("overlapping(", hierarchy, ")")};
  std::vector<std::string> queries;
  for (const std::string& path : paths) {
    for (const std::string& axis : axes) {
      for (const std::string& f : {std::string(), StrCat("[", filter, "]")}) {
        const std::string query = StrCat(path, "[", axis, "::", s, f, "]");
        queries.push_back(query);
        queries.push_back(StrCat(
            query, queries.size() % 4 == 1 ? "[2]" : "[position() >= 3]"));
      }
    }
  }
  return queries;
}

/// The candidate paths of the sweep: `//*` and `/descendant::*` from the
/// document; `//*` and a hierarchy-qualified descendant-or-self (whose
/// context is no member of the candidates' pool) from an element with
/// more candidates below it than S has members; and `//T` from elements
/// with a handful of candidates, or none.
std::vector<std::string> SweepPaths(const std::string& outer,
                                    const std::string& other_hierarchy,
                                    const std::string& small) {
  return {"//*", "/descendant::*", StrCat(outer, "//*"),
          StrCat(outer, "/descendant-or-self(", other_hierarchy, ")::*"),
          small};
}

// The small side against the naive oracle: every existential axis, with
// and without a filter, from the document and from element contexts,
// with and without a trailing positional predicate; plus an empty R and
// an R that is the whole pool. A smaller manuscript than the others
// here keeps the naive oracle, which scans every element per candidate,
// quick.
TEST(PredicatePlans, SmallSideMatchesNaive) {
  Manuscript ms = MakeManuscript(3'000);
  const goddag::Goddag& g = *ms.g;
  const size_t lines = g.ElementsByTag("line").size();
  ASSERT_GT(lines, 20u);
  std::vector<std::string> queries = ExistentialSweep(
      SweepPaths("//page[@n = '2']", "linguistic", "//line[@n = '9']//w"),
      "line", "physical", "@n = '9' or @n = '30'");
  std::vector<std::string> more = ExistentialSweep(
      {"//s[@n = '4']//*"}, "line", "physical", "@n = '9'");
  queries.insert(queries.end(), more.begin(), more.end());
  for (const char* query :
       {"//*[overlapping::line[@n = '99999']]",
        "/descendant::*[ancestor::line[@n = '99999']][2]",
        "//*[following::line[@n = '99999']]",
        "//*[descendant-or-self::line[@n = '99999']]",
        "//*[overlapping::line[@n]]", "//*[following::line[@n]][2]",
        "//*[preceding::line[@n]][position() >= 3]",
        "/descendant::*[descendant-or-self::line[@n]]",
        "//*[ancestor::*[@n]]", "//w[ancestor::s][2]"}) {
    queries.push_back(query);
  }
  xpath::AxisStats stats;
  ExpectFusedMatchesNaive(g, queries, {}, {}, {}, &stats);
  EXPECT_GT(stats.semijoins, 0u);
  EXPECT_GT(stats.restricted_pools, 0u);

  // TEI: lb and pb milestones become line and page spans, and two
  // milestones in a row make zero-width ones: lines 7 and 107 are
  // equal-extent twins at one offset, and page 2 is zero-width at the
  // start of page 102.
  std::string tei = MakeTeiSample();
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{
            "<lb n=\"7\"/>", "<lb n=\"7\"/><lb n=\"107\"/><lb n=\"207\"/>"},
        {"<pb n=\"2\"/>", "<pb n=\"2\"/><pb n=\"102\"/>"}}) {
    const size_t at = tei.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    tei.replace(at, from.size(), to);
  }
  auto imported = ingest::Import(tei, {ingest::Format::kTei});
  ASSERT_TRUE(imported.ok()) << imported.status();
  const goddag::Goddag& t = *imported->doc.g;
  size_t zero_width = 0;
  for (NodeId n : t.AllElements()) zero_width += t.char_range(n).empty();
  EXPECT_EQ(zero_width, 3u);
  // Fewer pages than elements below div 2, more lines.
  queries = ExistentialSweep(
      SweepPaths("//div[@n = '2']", "line", "//line[@n = '12']//s"), "page",
      "page", "@n = '2' or @n = '102'");
  more = ExistentialSweep({"//*", "/descendant::*", "//p[@n = '3']//*"},
                          "line", "line", "@n = '12' or @n = '107'");
  queries.insert(queries.end(), more.begin(), more.end());
  for (const char* query :
       {"//*[overlapping::line[@n = '99999']]",
        "//*[following::line[@n = '99999']][2]",
        "//*[overlapping::line[@n]]", "//*[preceding::line[@n]][2]",
        "//*[following::page[@n]]", "//*[ancestor::page[@n = '102']]",
        "//*[following::line[@n = '7' or @n = '107']]",
        "//*[preceding::line[@n = '107']]"}) {
    queries.push_back(query);
  }
  stats = xpath::AxisStats();
  ExpectFusedMatchesNaive(t, queries, {}, {}, {}, &stats);
  EXPECT_GT(stats.semijoins, 0u);
  EXPECT_GT(stats.restricted_pools, 0u);
}

}  // namespace
}  // namespace cxml
