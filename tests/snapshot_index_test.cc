// goddag::SnapshotIndex and the indexed Extended XPath axes: the
// indexed strategy must return byte-identical results to the naive
// full scans (the equivalence oracle kept compile-time available via
// xpath::AxisStrategy::kNaiveScan), on the hand-built Boethius corpus
// and across randomized synthetic manuscripts; plus the pinned
// following/preceding equal-extent semantics and the per-version index
// the service layer's snapshots share.

#include "goddag/snapshot_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "sacx/goddag_handler.h"
#include "service/document_store.h"
#include "storage/binary.h"
#include "test_util.h"
#include "workload/generator.h"
#include "xpath/engine.h"

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
  ASSERT_TRUE(txn->Commit().ok());
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

}  // namespace
}  // namespace cxml
