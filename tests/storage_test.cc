#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "edit/session.h"
#include "goddag/algebra.h"
#include "goddag/serializer.h"
#include "sacx/goddag_handler.h"
#include "storage/binary.h"
#include "test_util.h"
#include "workload/generator.h"
#include "xpath/engine.h"
#include "xquery/xquery.h"

namespace cxml::storage {
namespace {

using ::cxml::testing::BoethiusFixture;
using ::cxml::testing::ExpectCloneEquivalence;

TEST(StorageTest, SaveLoadRoundTripBoethius) {
  auto fixture = BoethiusFixture::Make();
  ASSERT_NE(fixture.g, nullptr);
  auto bytes = Save(*fixture.g);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_GT(bytes->size(), 100u);

  auto loaded = Load(*bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->g->Validate().ok());
  EXPECT_EQ(loaded->g->content(), fixture.g->content());
  EXPECT_EQ(loaded->cmh->size(), 4u);
  EXPECT_EQ(loaded->cmh->root_tag(), "r");

  // Full structural equivalence via serialisation.
  auto a = goddag::SerializeAll(*fixture.g);
  auto b = goddag::SerializeAll(*loaded->g);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(StorageTest, SnapshotEmbedsTheSchema) {
  auto fixture = BoethiusFixture::Make();
  auto bytes = Save(*fixture.g);
  ASSERT_TRUE(bytes.ok());
  auto loaded = Load(*bytes);
  ASSERT_TRUE(loaded.ok());
  // The reconstructed CMH knows the vocabulary.
  EXPECT_EQ(loaded->cmh->HierarchyOf("w"),
            loaded->cmh->FindIdByName("linguistic"));
  EXPECT_EQ(loaded->cmh->HierarchyOf("dmg"),
            loaded->cmh->FindIdByName("damage"));
  // The DTDs survived: content models compile.
  EXPECT_TRUE(loaded->cmh->CompileAll().ok());
}

TEST(StorageTest, OverlapSemanticsSurvive) {
  auto fixture = BoethiusFixture::Make();
  auto loaded = Load(*Save(*fixture.g));
  ASSERT_TRUE(loaded.ok());
  auto pairs = goddag::FindOverlappingPairs(*loaded->g, "w", "line");
  EXPECT_EQ(pairs.size(), 2u);
}

TEST(StorageTest, RequiresBoundCmh) {
  goddag::Goddag bare("abc", 1);
  EXPECT_EQ(Save(bare).status().code(), StatusCode::kFailedPrecondition);
}

TEST(StorageTest, RejectsCorruptedInput) {
  EXPECT_EQ(Load("").status().code(), StatusCode::kParseError);
  EXPECT_EQ(Load("NOPE1234").status().code(), StatusCode::kParseError);

  auto fixture = BoethiusFixture::Make();
  auto bytes = Save(*fixture.g);
  ASSERT_TRUE(bytes.ok());
  // Truncations at every eighth must fail cleanly, never crash.
  for (size_t cut = 4; cut < bytes->size(); cut += bytes->size() / 8) {
    auto r = Load(std::string_view(*bytes).substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
  // Trailing garbage detected.
  std::string padded = *bytes + "garbage";
  EXPECT_EQ(Load(padded).status().code(), StatusCode::kParseError);
  // Bad version detected.
  std::string bad_version = *bytes;
  bad_version[4] = 99;
  EXPECT_EQ(Load(bad_version).status().code(),
            StatusCode::kUnimplemented);
}

/// The WAL-recovery contract: a checkpoint torn at *any* byte (a crash
/// mid-write leaves arbitrary prefixes) must come back as a clean
/// error, so recovery can fall back to an older checkpoint instead of
/// crashing or loading garbage.
TEST(StorageTest, EveryTruncationPrefixFailsCleanly) {
  auto fixture = BoethiusFixture::Make();
  auto bytes = Save(*fixture.g);
  ASSERT_TRUE(bytes.ok());
  for (size_t cut = 0; cut < bytes->size(); ++cut) {
    auto r = Load(std::string_view(*bytes).substr(0, cut));
    ASSERT_FALSE(r.ok()) << "prefix of " << cut << " bytes parsed";
    ASSERT_FALSE(r.status().message().empty());
  }
}

TEST(StorageTest, StructuralCloneMatchesSnapshotOracleBoethius) {
  auto fixture = BoethiusFixture::Make();
  ASSERT_NE(fixture.g, nullptr);
  ExpectCloneEquivalence(
      *fixture.g,
      {"count(//w)", "//w[overlapping::line]", "//res", "count(//dmg)",
       "//line"},
      {"for $w in //w where count($w/overlapping::line) > 0 "
       "return {string($w)}"});
}

TEST(StorageTest, StructuralCloneMatchesSnapshotOracleSynthetic) {
  workload::GeneratorParams params;
  params.content_chars = 5000;
  params.extra_hierarchies = 3;
  auto corpus = workload::GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok());
  auto g = sacx::ParseToGoddag(*corpus->cmh, corpus->SourceViews());
  ASSERT_TRUE(g.ok());
  ExpectCloneEquivalence(
      *g,
      {"count(//w)", "//w[overlapping::line]", "count(//a0)",
       "count(//page/line)"},
      {"let $n := count(//s) return {string($n)}"});
}

TEST(StorageTest, StructuralCloneIsIndependent) {
  auto fixture = BoethiusFixture::Make();
  auto before = Save(*fixture.g);
  ASSERT_TRUE(before.ok());

  auto copy = Clone(*fixture.g);
  ASSERT_TRUE(copy.ok()) << copy.status();

  // NodeIds survive verbatim: the copy's arena mirrors the original.
  ASSERT_EQ(copy->g->arena_size(), fixture.g->arena_size());
  EXPECT_EQ(copy->g->root(), fixture.g->root());
  for (goddag::NodeId node = 0; node < fixture.g->arena_size(); ++node) {
    ASSERT_EQ(copy->g->kind(node), fixture.g->kind(node)) << node;
    ASSERT_EQ(copy->g->tag(node), fixture.g->tag(node)) << node;
    ASSERT_EQ(copy->g->char_range(node), fixture.g->char_range(node))
        << node;
  }

  // The cloned CMH is self-contained and compilable: a prevalidating
  // session starts on the copy (this is what DocumentStore::BeginEdit
  // does with every structural clone).
  auto session = edit::EditSession::Start(copy->g.get());
  ASSERT_TRUE(session.ok()) << session.status();

  // Mutating the copy leaves the original byte-identical.
  ASSERT_TRUE(copy->g->InsertText(0, "XYZ ").ok());
  EXPECT_TRUE(copy->g->Validate().ok());
  EXPECT_NE(copy->g->content(), fixture.g->content());
  auto after = Save(*fixture.g);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after) << "editing the clone mutated the original";
}

TEST(StorageTest, CloneCompactsDetachmentGarbage) {
  // Edit rollbacks detach arena nodes without freeing their slots (ids
  // are never reused). The verbatim structural copy would carry that
  // garbage into every future version, so once detached slots
  // outnumber live nodes Clone must route through the snapshot path
  // and hand back a compact arena.
  workload::GeneratorParams params;
  params.content_chars = 2000;
  // No pre-placed annotations: the loop's fixed a0 range stays free.
  params.annotation_density = 0.0;
  auto corpus = workload::GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok());
  auto built = sacx::ParseToGoddag(*corpus->cmh, corpus->SourceViews());
  ASSERT_TRUE(built.ok());
  goddag::Goddag g = std::move(built).value();

  auto session = edit::EditSession::Start(&g);
  ASSERT_TRUE(session.ok()) << session.status();
  size_t before_arena = g.arena_size();
  for (int i = 0; i < static_cast<int>(before_arena) + 1100; ++i) {
    ASSERT_TRUE(session->Select(Interval(5, 25)).ok());
    auto applied = session->Apply(2, "a0");
    ASSERT_TRUE(applied.ok()) << applied.status();
    ASSERT_TRUE(session->editor().Undo().ok());
  }
  ASSERT_GT(g.arena_size(), 2 * before_arena);

  auto compacted = Clone(g);
  ASSERT_TRUE(compacted.ok()) << compacted.status();
  EXPECT_LT(compacted->g->arena_size(), g.arena_size());
  EXPECT_TRUE(compacted->g->Validate().ok());
  // Logically still the same document.
  auto a = Save(g);
  auto b = Save(*compacted->g);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(StorageTest, CloneRepacksDeadPoolEntries) {
  // A child list that outgrows its room moves to the end of the pool,
  // and a removed element's list dies, leaving dead entries behind.
  // Once they outnumber the rest, Clone repacks the copy's pools
  // (same arena, same NodeIds) instead of carrying them forward.
  workload::GeneratorParams params;
  params.content_chars = 2000;
  params.annotation_density = 0.0;
  auto corpus = workload::GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok());
  auto built = sacx::ParseToGoddag(*corpus->cmh, corpus->SourceViews());
  ASSERT_TRUE(built.ok());
  goddag::Goddag g = std::move(built).value();
  EXPECT_EQ(g.dead_pool_entries(), 0u) << "builders leave packed pools";

  auto session = edit::EditSession::Start(&g);
  ASSERT_TRUE(session.ok()) << session.status();
  for (int i = 0; i < 100 && !(g.pool_entries() >= 4096 &&
                               2 * g.dead_pool_entries() > g.pool_entries());
       ++i) {
    // The generator's two a0 annotations start at 747.
    ASSERT_TRUE(session->Select(Interval(0, 700)).ok());
    auto applied = session->Apply(2, "a0");
    ASSERT_TRUE(applied.ok()) << applied.status();
    ASSERT_TRUE(session->editor().Undo().ok());
    ASSERT_TRUE(g.Validate().ok()) << g.Validate();
  }
  ASSERT_GT(2 * g.dead_pool_entries(), g.pool_entries());

  auto copy = Clone(g);
  ASSERT_TRUE(copy.ok()) << copy.status();
  EXPECT_EQ(copy->g->arena_size(), g.arena_size());
  EXPECT_EQ(copy->g->dead_pool_entries(), 0u);
  EXPECT_LT(copy->g->pool_entries(), g.pool_entries());
  ExpectCloneEquivalence(g, {"count(//w)", "//line", "count(//a0)"}, {});
}

TEST(StorageTest, StructuralCloneRequiresBoundCmh) {
  goddag::Goddag bare("abc", 1);
  EXPECT_EQ(Clone(bare).status().code(), StatusCode::kFailedPrecondition);
}

TEST(StorageTest, FileRoundTrip) {
  auto fixture = BoethiusFixture::Make();
  const std::string path = ::testing::TempDir() + "/goddag_snapshot.cxg";
  ASSERT_TRUE(SaveToFile(*fixture.g, path).ok());
  auto loaded = LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->g->content(), fixture.g->content());
  std::remove(path.c_str());
  EXPECT_EQ(LoadFromFile(path).status().code(), StatusCode::kNotFound);
}

TEST(StorageTest, SyntheticCorpusRoundTrip) {
  workload::GeneratorParams params;
  params.content_chars = 5000;
  params.extra_hierarchies = 3;
  auto corpus = workload::GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok());
  auto g = sacx::ParseToGoddag(*corpus->cmh, corpus->SourceViews());
  ASSERT_TRUE(g.ok());
  auto loaded = Load(*Save(*g));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto a = goddag::SerializeAll(*g);
  auto b = goddag::SerializeAll(*loaded->g);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

}  // namespace
}  // namespace cxml::storage
