#include <gtest/gtest.h>

#include <set>

#include "goddag/algebra.h"
#include "goddag/builder.h"
#include "goddag/goddag.h"
#include "goddag/serializer.h"
#include "test_util.h"
#include "workload/boethius.h"

namespace cxml::goddag {
namespace {

using ::cxml::testing::BoethiusFixture;
using ::cxml::testing::FindElement;

class GoddagBoethiusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = BoethiusFixture::Make();
    ASSERT_NE(fixture_.g, nullptr);
    g_ = fixture_.g.get();
  }

  BoethiusFixture fixture_;
  Goddag* g_ = nullptr;
};

TEST_F(GoddagBoethiusTest, StructurallyValid) {
  Status st = g_->Validate();
  EXPECT_TRUE(st.ok()) << st;
}

TEST_F(GoddagBoethiusTest, LeavesPartitionContent) {
  size_t cursor = 0;
  std::string rebuilt;
  for (NodeId leaf : g_->leaves()) {
    EXPECT_EQ(g_->char_range(leaf).begin, cursor);
    cursor = g_->char_range(leaf).end;
    rebuilt += g_->text(leaf);
  }
  EXPECT_EQ(cursor, g_->content().size());
  EXPECT_EQ(rebuilt, workload::BoethiusContent());
}

TEST_F(GoddagBoethiusTest, ElementCounts) {
  EXPECT_EQ(g_->ElementsByTag("line").size(), 2u);
  EXPECT_EQ(g_->ElementsByTag("s").size(), 2u);
  EXPECT_EQ(g_->ElementsByTag("w").size(), 13u);
  EXPECT_EQ(g_->ElementsByTag("res").size(), 1u);
  EXPECT_EQ(g_->ElementsByTag("dmg").size(), 1u);
  EXPECT_EQ(g_->num_hierarchies(), 4u);
  // Per-hierarchy restriction.
  HierarchyId ling = fixture_.corpus.cmh->FindIdByName("linguistic");
  EXPECT_EQ(g_->ElementsByTag("w", ling).size(), 13u);
  HierarchyId phys = fixture_.corpus.cmh->FindIdByName("physical");
  EXPECT_TRUE(g_->ElementsByTag("w", phys).empty());
}

TEST_F(GoddagBoethiusTest, WordCrossesLineBreak) {
  NodeId asungen = FindElement(*g_, "w", "asungen");
  NodeId line1 = g_->ElementsByTag("line")[0];
  NodeId line2 = g_->ElementsByTag("line")[1];
  EXPECT_TRUE(Overlaps(*g_, asungen, line1));
  EXPECT_TRUE(Overlaps(*g_, asungen, line2));
  EXPECT_TRUE(Overlaps(*g_, line1, asungen));  // symmetric
  // Words fully inside a line do not overlap it.
  NodeId wisdom = FindElement(*g_, "w", "Wisdom");
  EXPECT_FALSE(Overlaps(*g_, wisdom, line1));
  EXPECT_TRUE(Contains(*g_, line1, wisdom));
}

TEST_F(GoddagBoethiusTest, SharedLeafHasParentInEveryHierarchy) {
  // The leaf carrying "gan he eft seg" region: find a leaf inside the
  // damage extent; its parents must differ by hierarchy.
  NodeId dmg = g_->ElementsByTag("dmg")[0];
  Interval span = g_->leaf_range(dmg);
  ASSERT_FALSE(span.empty());
  NodeId leaf = g_->leaf_at(span.begin);
  HierarchyId phys = fixture_.corpus.cmh->FindIdByName("physical");
  HierarchyId ling = fixture_.corpus.cmh->FindIdByName("linguistic");
  HierarchyId dmgh = fixture_.corpus.cmh->FindIdByName("damage");

  NodeId p_phys = g_->leaf_parent(leaf, phys);
  NodeId p_ling = g_->leaf_parent(leaf, ling);
  NodeId p_dmg = g_->leaf_parent(leaf, dmgh);
  EXPECT_EQ(g_->tag(p_phys), "line");
  EXPECT_EQ(g_->tag(p_dmg), "dmg");
  // In the linguistic hierarchy, the leaf sits inside a word.
  EXPECT_TRUE(g_->is_element(p_ling));
  // Navigation across structures goes through the shared leaf.
  EXPECT_NE(p_phys, p_dmg);
}

TEST_F(GoddagBoethiusTest, ParentChainReachesRoot) {
  NodeId w = FindElement(*g_, "w", "Wisdom");
  NodeId s = g_->parent(w);
  EXPECT_EQ(g_->tag(s), "s");
  NodeId root = g_->parent(s);
  EXPECT_EQ(root, g_->root());
  EXPECT_EQ(g_->parent_in(w, g_->hierarchy(w)), s);
  // From another hierarchy's viewpoint, an element has no parent.
  HierarchyId phys = fixture_.corpus.cmh->FindIdByName("physical");
  EXPECT_EQ(g_->parent_in(w, phys), kInvalidNode);
}

TEST_F(GoddagBoethiusTest, TextReconstruction) {
  NodeId line1 = g_->ElementsByTag("line")[0];
  EXPECT_EQ(g_->text(line1),
            "\xC3\x90""a se Wisdom \xC3\xBE""a \xC3\xBE""is fitte asun");
  NodeId res = g_->ElementsByTag("res")[0];
  EXPECT_EQ(g_->text(res), "tte asungen h\xC3\xA6");
  EXPECT_EQ(g_->text(g_->root()), workload::BoethiusContent());
}

TEST_F(GoddagBoethiusTest, AttributesPreserved) {
  NodeId line1 = g_->ElementsByTag("line")[0];
  ASSERT_NE(g_->FindAttribute(line1, "n"), nullptr);
  EXPECT_EQ(*g_->FindAttribute(line1, "n"), "1");
  NodeId dmg = g_->ElementsByTag("dmg")[0];
  EXPECT_EQ(*g_->FindAttribute(dmg, "type"), "stain");
  EXPECT_EQ(g_->FindAttribute(dmg, "absent"), nullptr);
}

TEST_F(GoddagBoethiusTest, DocumentOrder) {
  std::vector<NodeId> all = g_->AllElements();
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_FALSE(g_->Before(all[i], all[i - 1]))
        << "elements " << i - 1 << "," << i << " out of order";
  }
  // Root (if included) would come first; containers precede contained.
  NodeId s1 = g_->ElementsByTag("s")[0];
  NodeId w1 = g_->ElementsByTag("w")[0];
  EXPECT_TRUE(g_->Before(s1, w1));
}

TEST_F(GoddagBoethiusTest, LeavesCoveringRanges) {
  // Whole content => all leaves.
  Interval all = g_->LeavesCovering(Interval(0, g_->content().size()));
  EXPECT_EQ(all, Interval(0, g_->num_leaves()));
  // A single character => exactly one leaf.
  Interval one = g_->LeavesCovering(Interval(0, 1));
  EXPECT_EQ(one.length(), 1u);
  // Empty range => empty leaf interval.
  EXPECT_TRUE(g_->LeavesCovering(Interval(5, 5)).empty());
}

TEST_F(GoddagBoethiusTest, SerializeRoundTripsAllHierarchies) {
  auto docs = SerializeAll(*g_);
  ASSERT_TRUE(docs.ok()) << docs.status();
  ASSERT_EQ(docs->size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ((*docs)[i], workload::BoethiusSources()[i])
        << "hierarchy " << workload::kBoethiusHierarchies[i]
        << " does not round-trip";
  }
}

TEST_F(GoddagBoethiusTest, DotExportMentionsEverything) {
  std::string dot = ToDot(*g_);
  EXPECT_NE(dot.find("digraph goddag"), std::string::npos);
  // Leaves are fragments cut at markup boundaries, so the word 'asungen'
  // appears as split leaf labels ('asun' + 'gen').
  EXPECT_NE(dot.find("asun"), std::string::npos);
  EXPECT_NE(dot.find("line"), std::string::npos);
  EXPECT_NE(dot.find("dmg"), std::string::npos);
  EXPECT_NE(dot.find("rank=sink"), std::string::npos);
}

TEST_F(GoddagBoethiusTest, StructureSummary) {
  std::string summary = StructureSummary(*g_);
  EXPECT_NE(summary.find("4 hierarchies"), std::string::npos);
  EXPECT_NE(summary.find("w x13"), std::string::npos);
  EXPECT_NE(summary.find("overlapping pairs"), std::string::npos);
}

// ------------------------------------------------------------ mutation

TEST_F(GoddagBoethiusTest, SplitLeafPreservesInvariants) {
  size_t leaves_before = g_->num_leaves();
  // Split in the middle of some leaf.
  NodeId leaf0 = g_->leaf_at(0);
  size_t mid = g_->char_range(leaf0).begin + 1;
  auto right = g_->SplitLeafAt(mid);
  ASSERT_TRUE(right.ok()) << right.status();
  EXPECT_EQ(g_->num_leaves(), leaves_before + 1);
  EXPECT_EQ(g_->char_range(*right).begin, mid);
  EXPECT_TRUE(g_->Validate().ok()) << g_->Validate();
}

TEST_F(GoddagBoethiusTest, SplitAtExistingBoundaryIsNoop) {
  size_t leaves_before = g_->num_leaves();
  size_t boundary = g_->char_range(g_->leaf_at(1)).begin;
  auto leaf = g_->SplitLeafAt(boundary);
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ(*leaf, g_->leaf_at(1));
  EXPECT_EQ(g_->num_leaves(), leaves_before);
}

TEST_F(GoddagBoethiusTest, SplitOutOfRangeFails) {
  EXPECT_EQ(g_->SplitLeafAt(0).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g_->SplitLeafAt(g_->content().size()).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(GoddagBoethiusTest, InsertElementOverWords) {
  // Mark a phrase in the linguistic hierarchy covering "se Wisdom".
  HierarchyId ling = fixture_.corpus.cmh->FindIdByName("linguistic");
  // Extend the linguistic DTD check: 'phrase' is not declared, so pick a
  // declared tag: insert another <w> spanning exactly "se" (silly but
  // structurally legal — the editor layer does DTD-level checking).
  NodeId se = FindElement(*g_, "w", "se");
  Interval span = g_->char_range(se);
  // Wrap "se" in a new w element of the same extent.
  auto wrapped = g_->InsertElement(ling, "w", {{"n", "wrap"}}, span);
  ASSERT_TRUE(wrapped.ok()) << wrapped.status();
  EXPECT_TRUE(g_->Validate().ok()) << g_->Validate();
  EXPECT_EQ(g_->text(*wrapped), "se");
  // The previous w is now nested inside the new one or vice versa.
  EXPECT_TRUE(Contains(*g_, *wrapped, se) || Contains(*g_, se, *wrapped));
}

TEST_F(GoddagBoethiusTest, InsertWithLeafSplitting) {
  HierarchyId dmgh = fixture_.corpus.cmh->FindIdByName("damage");
  // Damage the middle of "Wisdom": offsets inside the first line.
  // Range "isdom " starts inside the word 'Wisdom' and ends past it —
  // a proper overlap once inserted.
  size_t start = g_->content().find("isdom");
  ASSERT_NE(start, std::string::npos);
  size_t leaves_before = g_->num_leaves();
  auto node = g_->InsertElement(dmgh, "dmg", {{"type", "tear"}},
                                Interval(start, start + 6));
  ASSERT_TRUE(node.ok()) << node.status();
  EXPECT_EQ(g_->text(*node), "isdom ");
  EXPECT_GT(g_->num_leaves(), leaves_before);
  EXPECT_TRUE(g_->Validate().ok()) << g_->Validate();
  // The new damage overlaps the word it cuts.
  NodeId wisdom = FindElement(*g_, "w", "Wisdom");
  EXPECT_TRUE(Overlaps(*g_, *node, wisdom));
}

TEST_F(GoddagBoethiusTest, InsertRejectsSameHierarchyOverlap) {
  HierarchyId ling = fixture_.corpus.cmh->FindIdByName("linguistic");
  // A range cutting across two sibling words ("se Wis"): would overlap
  // <w>se</w>'s sibling <w>Wisdom</w> partially.
  size_t start = g_->content().find("se Wis");
  ASSERT_NE(start, std::string::npos);
  auto bad = g_->InsertElement(ling, "w", {}, Interval(start, start + 6));
  EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(bad.status().message().find("overlap"), std::string::npos);
  // The failed insertion must not corrupt the structure.
  EXPECT_TRUE(g_->Validate().ok()) << g_->Validate();
}

TEST_F(GoddagBoethiusTest, InsertAcrossHierarchiesAllowed) {
  // The same range crossing word boundaries is fine in another hierarchy:
  // that is the whole point of concurrent markup.
  HierarchyId resh = fixture_.corpus.cmh->FindIdByName("restoration");
  size_t start = g_->content().find("se Wis");
  auto node = g_->InsertElement(resh, "res", {}, Interval(start, start + 6));
  ASSERT_TRUE(node.ok()) << node.status();
  EXPECT_TRUE(g_->Validate().ok()) << g_->Validate();
  EXPECT_EQ(g_->text(*node), "se Wis");
}

TEST_F(GoddagBoethiusTest, InsertUndeclaredTagRejected) {
  HierarchyId ling = fixture_.corpus.cmh->FindIdByName("linguistic");
  auto bad = g_->InsertElement(ling, "line", {}, Interval(0, 2));
  EXPECT_EQ(bad.status().code(), StatusCode::kValidationError);
}

TEST_F(GoddagBoethiusTest, InsertMilestone) {
  HierarchyId phys = fixture_.corpus.cmh->FindIdByName("physical");
  // A zero-width marker is structurally fine (vocabulary permitting):
  // use 'line' (declared) with an empty extent at a leaf boundary.
  size_t pos = g_->char_range(g_->leaf_at(1)).begin;
  auto node = g_->InsertElement(phys, "line", {{"n", "ms"}},
                                Interval(pos, pos));
  ASSERT_TRUE(node.ok()) << node.status();
  EXPECT_TRUE(g_->char_range(*node).empty());
  EXPECT_TRUE(g_->Validate().ok()) << g_->Validate();
}

TEST_F(GoddagBoethiusTest, RemoveElementSplicesChildren) {
  NodeId s1 = g_->ElementsByTag("s")[0];
  size_t child_count = g_->children(s1).size();
  ASSERT_GT(child_count, 0u);
  HierarchyId ling = g_->hierarchy(s1);
  size_t root_children_before = g_->root_children(ling).size();
  ASSERT_TRUE(g_->RemoveElement(s1).ok());
  EXPECT_TRUE(g_->Validate().ok()) << g_->Validate();
  EXPECT_EQ(g_->root_children(ling).size(),
            root_children_before - 1 + child_count);
  // Words formerly inside s1 now hang off the root.
  NodeId wisdom = FindElement(*g_, "w", "Wisdom");
  EXPECT_EQ(g_->parent(wisdom), g_->root());
  // Double removal fails.
  EXPECT_EQ(g_->RemoveElement(s1).code(), StatusCode::kFailedPrecondition);
}

TEST_F(GoddagBoethiusTest, RemoveLeafRejected) {
  EXPECT_EQ(g_->RemoveElement(g_->leaf_at(0)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GoddagBoethiusTest, InsertRemoveRoundTripPreservesSerialization) {
  auto before = SerializeAll(*g_);
  ASSERT_TRUE(before.ok());
  HierarchyId resh = fixture_.corpus.cmh->FindIdByName("restoration");
  size_t start = g_->content().find("ongan");
  auto node = g_->InsertElement(resh, "res", {}, Interval(start, start + 5));
  ASSERT_TRUE(node.ok()) << node.status();
  ASSERT_TRUE(g_->RemoveElement(*node).ok());
  auto after = SerializeAll(*g_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
  EXPECT_TRUE(g_->Validate().ok());
}

// ------------------------------------------------------------- algebra

TEST_F(GoddagBoethiusTest, FindOverlappingPairsWordsLines) {
  auto pairs = FindOverlappingPairs(*g_, "w", "line");
  // Exactly one word (asungen) overlaps lines — both of them.
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(g_->text(pairs[0].first), "asungen");
  EXPECT_EQ(g_->text(pairs[1].first), "asungen");
}

TEST_F(GoddagBoethiusTest, FindOverlappingPairsResWords) {
  auto pairs = FindOverlappingPairs(*g_, "res", "w");
  // res = "tte asungen hæ": overlaps 'fitte' and 'hæfde' properly;
  // contains 'asungen' (not an overlap).
  std::set<std::string> texts;
  for (const auto& [a, b] : pairs) texts.insert(std::string(g_->text(b)));
  EXPECT_EQ(texts, (std::set<std::string>{"fitte", "h\xC3\xA6""fde"}));
}

TEST_F(GoddagBoethiusTest, OverlapDegree) {
  NodeId asungen = FindElement(*g_, "w", "asungen");
  // asungen overlaps: line1, line2, res ("tte asungen hæ" contains
  // asungen? res = [begin of 'tte', end of 'hæ'] — contains asungen
  // entirely, so NOT an overlap). Check via algebra directly.
  size_t degree = OverlapDegree(*g_, asungen);
  EXPECT_EQ(degree, 2u);  // the two lines
  NodeId wisdom = FindElement(*g_, "w", "Wisdom");
  EXPECT_EQ(OverlapDegree(*g_, wisdom), 0u);
}

TEST_F(GoddagBoethiusTest, CoveringElementsOfSharedLeaf) {
  // A leaf inside 'asungen' after the line break is covered by line2,
  // w(asungen), s1, res.
  NodeId asungen = FindElement(*g_, "w", "asungen");
  Interval leaves = g_->leaf_range(asungen);
  NodeId last_leaf = g_->leaf_at(leaves.end - 1);
  auto covering = CoveringElements(*g_, last_leaf);
  std::set<std::string> tags;
  for (NodeId e : covering) tags.insert(g_->tag(e));
  EXPECT_TRUE(tags.count("w"));
  EXPECT_TRUE(tags.count("line"));
  EXPECT_TRUE(tags.count("s"));
  EXPECT_TRUE(tags.count("res"));
  // Innermost-first ordering: w before s.
  size_t w_at = 0, s_at = 0;
  for (size_t i = 0; i < covering.size(); ++i) {
    if (g_->tag(covering[i]) == "w") w_at = i;
    if (g_->tag(covering[i]) == "s") s_at = i;
  }
  EXPECT_LT(w_at, s_at);
}

TEST_F(GoddagBoethiusTest, ExtentIndexMatchesBruteForce) {
  ExtentIndex index(*g_);
  std::vector<NodeId> all = g_->AllElements();
  for (NodeId probe : all) {
    Interval query = g_->char_range(probe);
    std::vector<NodeId> expected;
    for (NodeId e : all) {
      if (g_->char_range(e).Overlaps(query)) expected.push_back(e);
    }
    std::vector<NodeId> got = index.Overlapping(query);
    g_->SortDocumentOrder(&expected);
    g_->SortDocumentOrder(&got);
    EXPECT_EQ(got, expected);
  }
}

TEST(GoddagBasicTest, EmptyContent) {
  Goddag g("", 2);
  EXPECT_EQ(g.num_leaves(), 0u);
  EXPECT_TRUE(g.Validate().ok()) << g.Validate();
  EXPECT_EQ(g.root_tag(), "r");
}

TEST(GoddagBasicTest, FreshGoddagSingleLeaf) {
  Goddag g("hello", 3, "root");
  EXPECT_EQ(g.num_leaves(), 1u);
  EXPECT_EQ(g.root_tag(), "root");
  EXPECT_TRUE(g.Validate().ok()) << g.Validate();
  NodeId leaf = g.leaf_at(0);
  for (HierarchyId h = 0; h < 3; ++h) {
    EXPECT_EQ(g.leaf_parent(leaf, h), g.root());
  }
}

TEST(GoddagBasicTest, InsertIntoFreshGoddag) {
  Goddag g("hello world", 2);
  auto hello = g.InsertElement(0, "a", {}, Interval(0, 5));
  ASSERT_TRUE(hello.ok()) << hello.status();
  auto world = g.InsertElement(1, "b", {}, Interval(6, 11));
  ASSERT_TRUE(world.ok()) << world.status();
  auto crossing = g.InsertElement(1, "c", {}, Interval(3, 8));
  // c overlaps b in hierarchy 1 -> rejected.
  EXPECT_EQ(crossing.status().code(), StatusCode::kFailedPrecondition);
  auto crossing0 = g.InsertElement(0, "c", {}, Interval(3, 8));
  // but c does not overlap anything in hierarchy 0 except a -> also bad.
  EXPECT_EQ(crossing0.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(g.Validate().ok()) << g.Validate();
  EXPECT_EQ(g.text(*hello), "hello");
  EXPECT_EQ(g.text(*world), "world");
}

TEST(GoddagBasicTest, ChildListsRelocateAndRepack) {
  // Lists live in one pool. Growing two of them in turn leaves no room
  // at the pool's end for the one not last in it, so it moves there
  // and its old entries die; CompactPools drops the dead entries and
  // keeps every list's contents.
  Goddag g(std::string(64, 'x'), 2);
  auto outer = g.InsertElement(0, "a", {{"n", "1"}}, Interval(8, 56));
  ASSERT_TRUE(outer.ok()) << outer.status();
  for (size_t offset = 9; offset < 56; offset += 2) {
    ASSERT_TRUE(g.SplitLeafAt(offset).ok());
    ASSERT_TRUE(g.Validate().ok()) << g.Validate();
  }
  EXPECT_GT(g.dead_pool_entries(), 0u);
  ASSERT_EQ(g.children(*outer).size(), 25u);
  ASSERT_EQ(g.root_children(1).size(), g.num_leaves());

  auto copy_of = [](Span<NodeId> list) {
    return std::vector<NodeId>(list.begin(), list.end());
  };
  std::vector<NodeId> outer_kids = copy_of(g.children(*outer));
  std::vector<NodeId> root0 = copy_of(g.root_children(0));
  std::vector<NodeId> root1 = copy_of(g.root_children(1));
  size_t entries = g.pool_entries();
  g.CompactPools();
  EXPECT_EQ(g.dead_pool_entries(), 0u);
  EXPECT_LT(g.pool_entries(), entries);
  EXPECT_TRUE(g.Validate().ok()) << g.Validate();
  EXPECT_EQ(copy_of(g.children(*outer)), outer_kids);
  EXPECT_EQ(copy_of(g.root_children(0)), root0);
  EXPECT_EQ(copy_of(g.root_children(1)), root1);
  ASSERT_NE(g.FindAttribute(*outer, "n"), nullptr);
  EXPECT_EQ(*g.FindAttribute(*outer, "n"), "1");

  // Packed lists have no spare room: the next growth moves one again.
  ASSERT_TRUE(g.SplitLeafAt(60).ok());
  EXPECT_GT(g.dead_pool_entries(), 0u);
  EXPECT_TRUE(g.Validate().ok()) << g.Validate();
  EXPECT_EQ(g.root_children(1).size(), g.num_leaves());
}

// ------------------------------------------------ copy-on-write chunks

constexpr size_t kChunk = ChunkedArray<uint32_t>::kChunkSize;

ChunkedArray<uint32_t> Iota(size_t n) {
  ChunkedArray<uint32_t> a;
  for (size_t i = 0; i < n; ++i) a.push_back(static_cast<uint32_t>(i));
  return a;
}

std::vector<uint32_t> Values(const ChunkedArray<uint32_t>& a) {
  return std::vector<uint32_t>(a.begin(), a.end());
}

TEST(ChunkedStorageTest, CopySharesEveryChunk) {
  ChunkedArray<uint32_t> a = Iota(3 * kChunk + 7);
  ChunkedArray<uint32_t> b(a);
  ASSERT_EQ(b.chunks().num_chunks(), 4u);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(b.chunks().SharesChunk(a.chunks(), c)) << c;
  }
  EXPECT_EQ(Values(b), Values(a));
  EXPECT_EQ(b.chunks().chunk_copies(), 0u);
}

TEST(ChunkedStorageTest, FirstWriteCopiesExactlyOneChunk) {
  ChunkedArray<uint32_t> a = Iota(3 * kChunk);
  ChunkedArray<uint32_t> b(a);
  b.Mutable(kChunk + 3) = 99;
  EXPECT_EQ(b.chunks().chunk_copies(), 1u);
  EXPECT_TRUE(b.chunks().SharesChunk(a.chunks(), 0));
  EXPECT_FALSE(b.chunks().SharesChunk(a.chunks(), 1));
  EXPECT_TRUE(b.chunks().SharesChunk(a.chunks(), 2));
  // The copy owns that chunk now: a second write stays in place.
  b.Mutable(kChunk + 4) = 98;
  EXPECT_EQ(b.chunks().chunk_copies(), 1u);
  EXPECT_EQ(a[kChunk + 3], kChunk + 3);
  EXPECT_EQ(b[kChunk + 3], 99u);
  EXPECT_EQ(b[kChunk + 5], kChunk + 5);
}

TEST(ChunkedStorageTest, AppendTouchesOnlyTheTail) {
  ChunkedArray<uint32_t> a = Iota(2 * kChunk + 5);
  ChunkedArray<uint32_t> b(a);
  b.push_back(7);
  EXPECT_EQ(b.chunks().chunk_copies(), 1u);
  EXPECT_TRUE(b.chunks().SharesChunk(a.chunks(), 0));
  EXPECT_TRUE(b.chunks().SharesChunk(a.chunks(), 1));
  EXPECT_FALSE(b.chunks().SharesChunk(a.chunks(), 2));
  // Filling the tail and going on opens a new chunk and copies nothing.
  while (b.size() < 3 * kChunk + 1) b.push_back(1);
  EXPECT_EQ(b.chunks().chunk_copies(), 1u);
  EXPECT_EQ(b.chunks().num_chunks(), 4u);
  EXPECT_EQ(a.size(), 2 * kChunk + 5);
  EXPECT_EQ(Values(a), Values(Iota(2 * kChunk + 5)));
}

TEST(ChunkedStorageTest, CloneAndSourceBothKeepMutating) {
  ChunkedArray<uint32_t> a = Iota(kChunk + 10);
  ChunkedArray<uint32_t> b(a);
  // Neither side owns a shared chunk after the copy, the source included.
  a.Mutable(0) = 1000;
  b.Mutable(0) = 2000;
  a.push_back(1);
  b.push_back(2);
  EXPECT_EQ(a.chunks().chunk_copies(), 2u);
  EXPECT_EQ(b.chunks().chunk_copies(), 2u);
  EXPECT_EQ(a[0], 1000u);
  EXPECT_EQ(b[0], 2000u);
  EXPECT_EQ(a[kChunk + 10], 1u);
  EXPECT_EQ(b[kChunk + 10], 2u);
  ChunkedArray<uint32_t> c(b);
  c.Mutable(1) = 3000;
  b.Mutable(1) = 4000;
  EXPECT_EQ(c[0], 2000u);
  EXPECT_EQ(c[1], 3000u);
  EXPECT_EQ(b[1], 4000u);
  EXPECT_EQ(a[1], 1u);
}

TEST(ChunkedStorageTest, InsertAndEraseShiftAcrossChunks) {
  std::vector<uint32_t> expected = Values(Iota(3 * kChunk + 3));
  ChunkedArray<uint32_t> a = Iota(3 * kChunk + 3);
  ChunkedArray<uint32_t> keep(a);
  a.Insert(5, 77);
  expected.insert(expected.begin() + 5, 77);
  a.Insert(2 * kChunk, 78);
  expected.insert(expected.begin() + 2 * kChunk, 78);
  a.Insert(a.size(), 79);
  expected.push_back(79);
  EXPECT_EQ(Values(a), expected);
  a.Erase(kChunk - 2, 2 * kChunk + 3);
  expected.erase(expected.begin() + kChunk - 2,
                 expected.begin() + 2 * kChunk + 3);
  EXPECT_EQ(Values(a), expected);
  EXPECT_EQ(a.chunks().num_chunks(), (a.size() + kChunk - 1) / kChunk);
  EXPECT_EQ(Values(keep), Values(Iota(3 * kChunk + 3)));
}

TEST(ChunkedStorageTest, PoolListsNeverCrossAChunk) {
  Pool<NodeId> pool;
  std::vector<PoolSpan> lists(4);
  std::vector<std::vector<NodeId>> expected(4);
  // Small lists grow by turns; one grows past a chunk.
  for (NodeId i = 0; i < 3 * kChunk; ++i) {
    const size_t l = i < kChunk ? i % 4 : 3;
    pool.Append(&lists[l], i);
    expected[l].push_back(i);
  }
  const auto& chunks = pool.chunks();
  for (size_t l = 0; l < 4; ++l) {
    Span<NodeId> view = pool.View(lists[l]);
    EXPECT_EQ(std::vector<NodeId>(view.begin(), view.end()), expected[l]);
    const size_t c = lists[l].begin >> CowChunks<NodeId>::kShift;
    const size_t offset = lists[l].begin & CowChunks<NodeId>::kMask;
    EXPECT_LE(offset + lists[l].capacity, chunks.used(c)) << l;
  }
  // The long list has a chunk of its own.
  EXPECT_GT(lists[3].capacity, kChunk);
  EXPECT_EQ(lists[3].begin & CowChunks<NodeId>::kMask, 0u);
  // A copy of the pool shares the chunks; writing one list of the copy
  // leaves the source's lists as they were.
  Pool<NodeId> copy(pool);
  PoolSpan copied = lists[0];
  copy.Insert(&copied, 0, 4242);
  EXPECT_EQ(pool.View(lists[0])[0], expected[0][0]);
  EXPECT_EQ(copy.View(copied)[0], 4242u);
}

TEST(GoddagBasicTest, CloneSharesStorageUntilWritten) {
  Goddag g(std::string(20000, 'x'), 2);
  for (size_t offset = 10; offset + 10 < 20000; offset += 20) {
    ASSERT_TRUE(g.InsertElement(0, "a", {}, Interval(offset, offset + 10))
                    .ok());
  }
  ASSERT_GT(g.arena_size(), 2 * kChunk);
  auto collect = [](const Goddag& x) {
    std::vector<std::pair<size_t, size_t>> out;
    for (NodeId e : x.AllElements()) {
      out.emplace_back(x.char_range(e).begin, x.char_range(e).end);
    }
    return out;
  };
  const auto before = collect(g);
  Goddag copy = g.Clone();
  ASSERT_TRUE(copy.InsertElement(1, "b", {}, Interval(15, 1015)).ok());
  ASSERT_TRUE(g.InsertElement(1, "c", {}, Interval(25, 45)).ok());
  EXPECT_TRUE(copy.Validate().ok()) << copy.Validate();
  EXPECT_TRUE(g.Validate().ok()) << g.Validate();
  EXPECT_EQ(copy.ElementsByTag("b").size(), 1u);
  EXPECT_TRUE(copy.ElementsByTag("c").empty());
  EXPECT_TRUE(g.ElementsByTag("b").empty());
  EXPECT_EQ(g.ElementsByTag("c").size(), 1u);
  EXPECT_EQ(collect(g).size(), before.size() + 1);
  ASSERT_TRUE(g.RemoveElement(g.ElementsByTag("c")[0]).ok());
  EXPECT_EQ(collect(g), before);
}

}  // namespace
}  // namespace cxml::goddag
