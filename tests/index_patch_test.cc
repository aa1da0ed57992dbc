// Incremental SnapshotIndex maintenance: SnapshotIndex::Patch must be
// observably indistinguishable from a fresh constructor build — pool by
// pool (nodes, extents, prefix-max-end and end-sorted companions),
// rank by rank, and answer by answer across the shared Extended-XPath
// equivalence sweep — after inserts, removes, undo/redo,
// zero-width-twin (milestone) and overlap-heavy edits; the service
// layer must take the patch path for delta-carrying commits and fall
// back to a full rebuild for fresh registrations, wide edits, and
// WAL-recovered documents (whose commits are opaque by then).

#include "goddag/snapshot_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "edit/editor.h"
#include "edit/session.h"
#include "goddag/builder.h"
#include "goddag/index_delta.h"
#include "sacx/goddag_handler.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "storage/binary.h"
#include "test_util.h"
#include "wal/log.h"
#include "wal/manager.h"
#include "workload/generator.h"
#include "xpath/engine.h"

namespace cxml {
namespace {

using goddag::IndexDelta;
using goddag::NodeId;
using goddag::SnapshotIndex;
using testing::kSweepAbsoluteQueries;
using testing::kSweepRelativeQueries;

// ------------------------------------------------------ deep equivalence

void ExpectPoolsEqual(const SnapshotIndex::Pool& a,
                      const SnapshotIndex::Pool& b, const char* what) {
  EXPECT_EQ(a.nodes, b.nodes) << what;
  EXPECT_EQ(a.begins, b.begins) << what;
  EXPECT_EQ(a.ends, b.ends) << what;
  EXPECT_EQ(a.max_end, b.max_end) << what;
  EXPECT_EQ(a.by_end, b.by_end) << what;
  EXPECT_EQ(a.end_keys, b.end_keys) << what;
}

/// The structural oracle: a patched index must match a fresh
/// constructor build field for field — ranks, num_ranked, every
/// (hierarchy, tag) pool with all companion arrays, and the leaf pool.
/// Dominates stores nothing and reads the GODDAG on both sides, so the
/// comparison below only checks that the patched index reads the right
/// one; snapshot_index_test checks Dominates against its naive
/// definition, on patched indexes too.
void ExpectIndexMatchesFresh(const goddag::Goddag& g,
                             const SnapshotIndex& patched) {
  SnapshotIndex fresh(g);
  ASSERT_EQ(patched.num_ranked(), fresh.num_ranked());
  std::vector<NodeId> attached;
  for (NodeId id = 0; id < g.arena_size(); ++id) {
    EXPECT_EQ(patched.rank(id), fresh.rank(id)) << "node " << id;
    if (fresh.rank(id) == SnapshotIndex::kUnranked) continue;
    attached.push_back(id);
  }

  std::set<std::string> tags;
  for (NodeId id : attached) {
    if (g.is_element(id)) tags.insert(g.tag(id));
  }
  for (size_t layer = 0; layer <= g.num_hierarchies(); ++layer) {
    goddag::HierarchyId hq =
        layer == 0 ? goddag::kInvalidHierarchy
                   : static_cast<goddag::HierarchyId>(layer - 1);
    ExpectPoolsEqual(patched.Elements(hq), fresh.Elements(hq), "any-tag");
    for (const std::string& tag : tags) {
      ExpectPoolsEqual(patched.Elements(hq, tag), fresh.Elements(hq, tag),
                       tag.c_str());
    }
  }
  ExpectPoolsEqual(patched.Leaves(), fresh.Leaves(), "leaves");

  // Every attached pair of a small document: a patched index that read
  // the predecessor's GODDAG would answer differently.
  if (attached.size() <= 400) {
    for (NodeId a : attached) {
      for (NodeId b : attached) {
        EXPECT_EQ(patched.Dominates(a, b), fresh.Dominates(a, b))
            << a << " vs " << b;
      }
    }
  }
}

/// The behavioural oracle: an engine over `index` answers the whole
/// shared sweep byte-identically to the naive full scans on `g`.
void ExpectAnswersMatchNaive(
    const goddag::Goddag& g,
    std::shared_ptr<const SnapshotIndex> index) {
  xpath::XPathEngine indexed(g);
  indexed.UseSnapshotIndex(std::move(index));
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
  if (g.num_leaves() > 1) contexts.push_back(g.leaf_at(1));
  for (NodeId ctx : contexts) {
    for (const char* query : kSweepRelativeQueries) {
      auto va = indexed.EvaluateFrom(query, ctx);
      auto vb = naive.EvaluateFrom(query, ctx);
      ASSERT_TRUE(va.ok()) << query << ": " << va.status();
      ASSERT_TRUE(vb.ok()) << query << ": " << vb.status();
      if (va->is_node_set()) {
        ASSERT_TRUE(vb->is_node_set()) << query;
        EXPECT_EQ(va->nodes(), vb->nodes()) << query << " from " << ctx;
      } else {
        EXPECT_EQ(va->ToString(g), vb->ToString(g)) << query;
      }
    }
  }
}

// --------------------------------------------------- goddag-level cases

/// Clones the fixture GODDAG, runs `edit` on an Editor over the clone,
/// then requires Patch to succeed and match a fresh build exactly.
class IndexPatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = testing::BoethiusFixture::Make();
    ASSERT_NE(fixture_.g, nullptr);
    prev_index_ = std::make_shared<const SnapshotIndex>(*fixture_.g);
    clone_ = std::make_unique<goddag::Goddag>(
        fixture_.g->Clone(fixture_.corpus.cmh.get()));
    auto editor = edit::Editor::Create(clone_.get());
    ASSERT_TRUE(editor.ok()) << editor.status();
    editor_ = std::make_unique<edit::Editor>(std::move(editor).value());
  }

  goddag::HierarchyId Hid(const char* name) {
    return fixture_.corpus.cmh->FindIdByName(name);
  }

  edit::InsertOp Op(const char* hierarchy, const char* tag,
                    std::string_view text) {
    edit::InsertOp op;
    op.hierarchy = Hid(hierarchy);
    op.tag = tag;
    size_t at = clone_->content().find(text);
    EXPECT_NE(at, std::string::npos) << text;
    op.chars = Interval(at, at + text.size());
    return op;
  }

  void ExpectPatchMatches(SnapshotIndex::PatchStats* stats = nullptr) {
    auto patched = SnapshotIndex::Patch(*prev_index_, *clone_,
                                        editor_->index_delta(), stats);
    ASSERT_NE(patched, nullptr) << "patch unexpectedly declined";
    ExpectIndexMatchesFresh(*clone_, *patched);
    ExpectAnswersMatchNaive(*clone_, patched);
  }

  testing::BoethiusFixture fixture_;
  std::shared_ptr<const SnapshotIndex> prev_index_;
  std::unique_ptr<goddag::Goddag> clone_;
  std::unique_ptr<edit::Editor> editor_;
};

TEST_F(IndexPatchTest, InsertPatches) {
  // The insert splits boundary leaves too (extent changes the delta
  // never names) — the arena diff must catch those on its own.
  auto node = editor_->Insert(Op("damage", "dmg", "se Wisdom"));
  ASSERT_TRUE(node.ok()) << node.status();
  SnapshotIndex::PatchStats stats;
  ExpectPatchMatches(&stats);
  EXPECT_GT(stats.pools_shared, 0u);
  EXPECT_GT(stats.pools_rebuilt, 0u);
  EXPECT_GT(stats.touched_nodes, 0u);
}

TEST_F(IndexPatchTest, RemovePatches) {
  NodeId w = testing::FindElement(*clone_, "w", "Wisdom");
  ASSERT_TRUE(editor_->Remove(w).ok());
  ExpectPatchMatches();
}

TEST_F(IndexPatchTest, InsertThenRemoveThenUndoRedoPatches) {
  auto node = editor_->Insert(Op("damage", "dmg", "fitte"));
  ASSERT_TRUE(node.ok()) << node.status();
  NodeId w = testing::FindElement(*clone_, "w", "ongan");
  ASSERT_TRUE(editor_->Remove(w).ok());
  ASSERT_TRUE(editor_->Undo().ok());  // undo the remove
  ASSERT_TRUE(editor_->Undo().ok());  // undo the insert
  ASSERT_TRUE(editor_->Redo().ok());  // redo the insert
  EXPECT_EQ(editor_->index_delta().ops, 5u);
  ExpectPatchMatches();
}

TEST_F(IndexPatchTest, ZeroWidthTwinsPatch) {
  // Two zero-width milestones at the same offset: equal-extent twins,
  // the corner the following/preceding exclusion and the equal-extent
  // dominance check are built around.
  size_t at = clone_->content().find("Wisdom");
  ASSERT_NE(at, std::string::npos);
  edit::InsertOp op;
  op.hierarchy = Hid("damage");
  op.tag = "dmg";
  op.chars = Interval(at, at);
  auto first = editor_->Insert(op);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = editor_->Insert(op);
  ASSERT_TRUE(second.ok()) << second.status();
  ExpectPatchMatches();
}

TEST_F(IndexPatchTest, OverlapHeavyEditsPatch) {
  // Edits in two hierarchies whose new elements overlap existing
  // markup of the other — the paper's concurrent-markup case.
  auto dmg = editor_->Insert(Op("damage", "dmg", "se Wisdom"));
  ASSERT_TRUE(dmg.ok()) << dmg.status();
  // Crosses word boundaries and properly overlaps the corpus's
  // existing <dmg> — new markup overlapping old across hierarchies.
  auto res = editor_->Insert(Op("restoration", "res", "ongan he eft"));
  ASSERT_TRUE(res.ok()) << res.status();
  ExpectPatchMatches();
}

TEST_F(IndexPatchTest, WideDeltaDeclines) {
  IndexDelta wide;
  wide.wide = true;
  auto patched = SnapshotIndex::Patch(*prev_index_, *clone_, wide, nullptr);
  EXPECT_EQ(patched, nullptr);
}

// The width cap at its boundary: kWideCap operations are not wide, one
// more is, and merged deltas are wide once their sum passes the cap.
TEST(IndexDeltaCap, WideOnlyPastTheCap) {
  IndexDelta delta;
  for (size_t i = 0; i < IndexDelta::kWideCap; ++i) delta.Touch();
  EXPECT_FALSE(delta.wide);
  delta.Touch();
  EXPECT_TRUE(delta.wide);
  delta.Clear();
  EXPECT_FALSE(delta.wide);
  EXPECT_EQ(delta.ops, 0u);

  IndexDelta half;
  for (size_t i = 0; i < IndexDelta::kWideCap / 2; ++i) half.Touch();
  IndexDelta at_cap = half;
  at_cap.Merge(half);
  EXPECT_FALSE(at_cap.wide);
  EXPECT_EQ(at_cap.ops, IndexDelta::kWideCap);
  IndexDelta past_cap = half;
  past_cap.Touch();
  past_cap.Merge(half);
  EXPECT_TRUE(past_cap.wide);

  // Width saturates across merges, whichever side was wide.
  IndexDelta small;
  small.Touch();
  IndexDelta from_wide = past_cap;
  from_wide.Merge(small);
  EXPECT_TRUE(from_wide.wide);
  small.Merge(past_cap);
  EXPECT_TRUE(small.wide);
}

TEST_F(IndexPatchTest, PrevIndexCanBeDroppedAfterPatch) {
  // Shared pools are value arrays: the patched index must answer after
  // both the predecessor index and the predecessor GODDAG are gone.
  auto node = editor_->Insert(Op("damage", "dmg", "fitte"));
  ASSERT_TRUE(node.ok()) << node.status();
  auto patched = SnapshotIndex::Patch(*prev_index_, *clone_,
                                      editor_->index_delta(), nullptr);
  ASSERT_NE(patched, nullptr);
  prev_index_.reset();
  fixture_.g.reset();
  ExpectIndexMatchesFresh(*clone_, *patched);
  ExpectAnswersMatchNaive(*clone_, patched);
}

// ------------------------------------- randomized edit-then-query sweep

/// Menu-driven random commits against the service store: after every
/// commit the successor's cold index must take the patch path and
/// answer the whole sweep byte-identically to the naive scans.
TEST(IndexPatchRandomized, EditThenQuerySweepStaysEquivalent) {
  workload::GeneratorParams params;
  params.content_chars = 1200;
  params.extra_hierarchies = 2;
  params.annotation_density = 0.4;
  params.seed = 11;
  auto corpus = workload::GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  auto g = sacx::ParseToGoddag(*corpus->cmh, corpus->SourceViews());
  ASSERT_TRUE(g.ok()) << g.status();
  auto bytes = storage::Save(*g);
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  service::DocumentStore store;
  ASSERT_TRUE(store.RegisterBytes("doc", *bytes).ok());
  service::QueryService service(&store);

  std::mt19937 rng(991);
  size_t commits = 0;
  for (int round = 0; round < 8; ++round) {
    auto snap = store.GetSnapshot("doc");
    ASSERT_TRUE(snap.ok());
    // Materialize the predecessor's index so the publish has a patch
    // base to adopt.
    (void)(*snap)->Index();

    auto txn = store.BeginEdit("doc");
    ASSERT_TRUE(txn.ok()) << txn.status();
    const std::string& content = txn->goddag().content();
    size_t applied = 0;
    for (int attempt = 0; attempt < 40 && applied < 2; ++attempt) {
      size_t a = rng() % content.size();
      size_t len = 1 + rng() % 40;
      size_t b = std::min(content.size(), a + len);
      if (a >= b) continue;
      if (!txn->session().Select(Interval(a, b)).ok()) continue;
      goddag::HierarchyId h = static_cast<goddag::HierarchyId>(
          rng() % txn->goddag().num_hierarchies());
      std::vector<std::string> menu = txn->session().Menu(h);
      if (menu.empty()) continue;
      auto node = txn->session().Apply(h, menu[rng() % menu.size()]);
      if (node.ok()) ++applied;
    }
    if (applied == 0) continue;
    service::EditResponse committed =
        service
            .SubmitCommit("doc", std::make_unique<service::EditTransaction>(
                                     std::move(txn).value()))
            .get();
    ASSERT_TRUE(committed.ok()) << committed.status;
    ++commits;

    auto next = store.GetSnapshot("doc");
    ASSERT_TRUE(next.ok());
    service::DocumentSnapshot::IndexBuild build;
    auto index = (*next)->Index(&build);
    EXPECT_TRUE(build.patched) << "round " << round;
    ExpectAnswersMatchNaive(*(*next)->goddag, index);
  }
  // The rounds must have actually exercised the patch path.
  ASSERT_GE(commits, 4u);
}

// ------------------------------------------------------- fallback paths

TEST(IndexPatchFallback, FreshRegistrationRebuilds) {
  auto fixture = testing::BoethiusFixture::Make();
  auto bytes = storage::Save(*fixture.g);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  service::DocumentStore store;
  ASSERT_TRUE(store.RegisterBytes("doc", *bytes).ok());
  auto snap = store.GetSnapshot("doc");
  ASSERT_TRUE(snap.ok());
  service::DocumentSnapshot::IndexBuild build;
  (void)(*snap)->Index(&build);
  EXPECT_TRUE(build.built);
  EXPECT_FALSE(build.patched);
}

/// Commits that are opaque to the WAL (no replayable op lines → a full
/// kSnapshot record) still patch while live — the delta rides the edit
/// session, not the wire payload. After recovery the document comes
/// back through Register with no delta, so its first cold index is a
/// full rebuild; answers must stay byte-identical either way.
TEST(IndexPatchFallback, OpaqueCommitsPatchLiveAndRebuildAfterRecovery) {
  std::string data_dir = ::testing::TempDir() + "index_patch_wal";
  (void)wal::RemoveDirRecursive(data_dir);

  workload::GeneratorParams params;
  params.content_chars = 1500;
  auto corpus = workload::GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  auto built = goddag::Builder::Build(*corpus->doc);
  ASSERT_TRUE(built.ok()) << built.status();
  auto bytes = storage::Save(*built);
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  std::string count_before;
  {
    service::DocumentStore store;
    service::QueryService service(
        &store, service::QueryServiceOptions{/*num_threads=*/2,
                                             /*cache_capacity=*/16});
    wal::WalOptions options;
    options.data_dir = data_dir;
    wal::WalManager wal(options);
    ASSERT_TRUE(wal.Open().ok());
    wal::RecoveryStats stats;
    ASSERT_TRUE(wal.RecoverAll(&store, &stats).ok());
    wal.Attach(&store, &service.pipeline());
    ASSERT_TRUE(store.RegisterBytes("ms", *bytes).ok());
    ASSERT_TRUE(wal.EnsureRegistered("ms").ok());

    auto snap = store.GetSnapshot("ms");
    ASSERT_TRUE(snap.ok());
    (void)(*snap)->Index();

    // A selection clear of existing a0 annotations (same-hierarchy
    // markup must nest).
    size_t offset = 0;
    {
      std::vector<Interval> taken;
      for (NodeId node : (*snap)->goddag->ElementsByTag("a0")) {
        taken.push_back((*snap)->goddag->char_range(node));
      }
      while (offset + 24 <= (*snap)->goddag->content().size()) {
        bool collides = false;
        for (const Interval& t : taken) {
          if (offset < t.end && t.begin < offset + 24) {
            offset = t.end;
            collides = true;
            break;
          }
        }
        if (!collides) break;
      }
    }
    // No wal_op_sets: the WAL logs a kSnapshot record for this commit.
    service::EditResponse response = service.ExecuteEdit(
        "ms", [offset](edit::EditSession& session) -> Status {
          CXML_RETURN_IF_ERROR(
              session.Select(Interval(offset, offset + 24)));
          return session.Apply(2, "a0").status();
        });
    ASSERT_TRUE(response.ok()) << response.status;

    auto next = store.GetSnapshot("ms");
    ASSERT_TRUE(next.ok());
    service::DocumentSnapshot::IndexBuild build;
    auto index = (*next)->Index(&build);
    EXPECT_TRUE(build.patched);
    ExpectAnswersMatchNaive(*(*next)->goddag, index);

    service::QueryResponse q =
        service.Execute({"ms", "count(//a0)", service::QueryKind::kXPath});
    ASSERT_TRUE(q.ok()) << q.status;
    ASSERT_FALSE(q.items->empty());
    count_before = (*q.items)[0];
  }

  // A new world from disk alone: the recovered snapshot rebuilds (no
  // delta survives recovery) and answers identically.
  {
    service::DocumentStore store;
    wal::WalOptions options;
    options.data_dir = data_dir;
    wal::WalManager wal(options);
    ASSERT_TRUE(wal.Open().ok());
    wal::RecoveryStats stats;
    ASSERT_TRUE(wal.RecoverAll(&store, &stats).ok());
    EXPECT_EQ(stats.docs_recovered, 1u);

    auto snap = store.GetSnapshot("ms");
    ASSERT_TRUE(snap.ok());
    service::DocumentSnapshot::IndexBuild build;
    auto index = (*snap)->Index(&build);
    EXPECT_TRUE(build.built);
    EXPECT_FALSE(build.patched);
    ExpectAnswersMatchNaive(*(*snap)->goddag, index);

    xpath::XPathEngine engine(*(*snap)->goddag);
    engine.UseSnapshotIndex(index);
    auto v = engine.EvaluateToStrings("count(//a0)");
    ASSERT_TRUE(v.ok()) << v.status();
    ASSERT_FALSE(v->empty());
    EXPECT_EQ((*v)[0], count_before);
  }
  (void)wal::RemoveDirRecursive(data_dir);
}

}  // namespace
}  // namespace cxml
