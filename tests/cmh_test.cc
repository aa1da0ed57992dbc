#include <gtest/gtest.h>

#include "cmh/conflict.h"
#include "cmh/distributed_document.h"
#include "cmh/hierarchy.h"
#include "workload/boethius.h"

namespace cxml::cmh {
namespace {

dtd::Dtd MustParseDtd(const char* text) {
  auto dtd = dtd::ParseDtd(text);
  EXPECT_TRUE(dtd.ok()) << dtd.status();
  return std::move(dtd).value();
}

TEST(HierarchyTest, AddAndLookup) {
  ConcurrentHierarchies cmh("r");
  auto phys = cmh.AddHierarchy(
      "physical", MustParseDtd("<!ELEMENT r (line+)><!ELEMENT line ANY>"));
  ASSERT_TRUE(phys.ok()) << phys.status();
  auto ling = cmh.AddHierarchy(
      "linguistic", MustParseDtd("<!ELEMENT r (w+)><!ELEMENT w ANY>"));
  ASSERT_TRUE(ling.ok());

  EXPECT_EQ(cmh.size(), 2u);
  EXPECT_EQ(cmh.root_tag(), "r");
  EXPECT_EQ(cmh.FindIdByName("physical"), *phys);
  EXPECT_EQ(cmh.FindIdByName("nope"), kInvalidHierarchy);
  EXPECT_EQ(cmh.HierarchyOf("line"), *phys);
  EXPECT_EQ(cmh.HierarchyOf("w"), *ling);
  EXPECT_EQ(cmh.HierarchyOf("r"), kInvalidHierarchy);
  EXPECT_TRUE(cmh.is_root_tag("r"));
  EXPECT_EQ(cmh.hierarchy(*phys).name, "physical");
}

TEST(HierarchyTest, DuplicateNameRejected) {
  ConcurrentHierarchies cmh("r");
  ASSERT_TRUE(cmh.AddHierarchy("h", MustParseDtd("<!ELEMENT r ANY>")).ok());
  EXPECT_EQ(cmh.AddHierarchy("h", MustParseDtd("<!ELEMENT r ANY>"))
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(HierarchyTest, VocabulariesMustPartition) {
  ConcurrentHierarchies cmh("r");
  ASSERT_TRUE(cmh.AddHierarchy(
                     "a", MustParseDtd("<!ELEMENT r (x*)><!ELEMENT x ANY>"))
                  .ok());
  // 'x' is claimed by hierarchy a.
  auto bad = cmh.AddHierarchy(
      "b", MustParseDtd("<!ELEMENT r (x*)><!ELEMENT x ANY>"));
  EXPECT_EQ(bad.status().code(), StatusCode::kAlreadyExists);
  // Sharing only the root tag is fine.
  auto ok = cmh.AddHierarchy(
      "c", MustParseDtd("<!ELEMENT r (y*)><!ELEMENT y ANY>"));
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(HierarchyTest, CompileAll) {
  auto cmh = workload::MakeBoethiusCmh();
  ASSERT_TRUE(cmh.ok()) << cmh.status();
  auto compiled = cmh->CompileAll();
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(compiled->size(), 4u);
}

TEST(HierarchyTest, CompiledAutomataCompileOncePerCmh) {
  auto cmh = workload::MakeBoethiusCmh();
  ASSERT_TRUE(cmh.ok()) << cmh.status();
  auto first = cmh->CompiledAutomata();
  auto second = cmh->CompiledAutomata();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ((*first)->size(), 4u);
  // A copy compiles its own, against its own DTDs.
  auto copy = cmh->Clone()->CompiledAutomata();
  ASSERT_TRUE(copy.ok());
  EXPECT_NE(*copy, *first);
}

TEST(HierarchyTest, NondeterministicModelFailsCompileNotRegistration) {
  ConcurrentHierarchies cmh("r");
  auto added = cmh.AddHierarchy(
      "h", MustParseDtd("<!ELEMENT r ((b,c)|(b,d))>"
                        "<!ELEMENT b EMPTY><!ELEMENT c EMPTY>"
                        "<!ELEMENT d EMPTY>"));
  ASSERT_TRUE(added.ok()) << added.status();
  // Every caller (each edit) sees the failure, not just the first.
  EXPECT_EQ(cmh.CompiledAutomata().status().code(),
            StatusCode::kValidationError);
  EXPECT_EQ(cmh.CompiledAutomata().status().code(),
            StatusCode::kValidationError);
}

// ------------------------------------------------------------ extents

TEST(ExtentTest, ComputeExtents) {
  auto doc = dom::ParseDocument("<r>ab<x>cd<y>ef</y></x>gh</r>");
  ASSERT_TRUE(doc.ok());
  auto extents = ComputeExtents(**doc);
  ASSERT_EQ(extents.size(), 3u);  // r, x, y
  EXPECT_EQ(extents[0].tag, "r");
  EXPECT_EQ(extents[0].chars, Interval(0, 8));
  EXPECT_EQ(extents[1].tag, "x");
  EXPECT_EQ(extents[1].chars, Interval(2, 6));
  EXPECT_EQ(extents[2].tag, "y");
  EXPECT_EQ(extents[2].chars, Interval(4, 6));
}

TEST(ExtentTest, EmptyElementsHaveEmptyExtents) {
  auto doc = dom::ParseDocument("<r>ab<pb/>cd</r>");
  auto extents = ComputeExtents(**doc);
  ASSERT_EQ(extents.size(), 2u);
  EXPECT_EQ(extents[1].tag, "pb");
  EXPECT_EQ(extents[1].chars, Interval(2, 2));
  EXPECT_TRUE(extents[1].chars.empty());
}

TEST(ExtentTest, CommentsContributeNothing) {
  auto doc = dom::ParseDocument("<r>ab<!--note-->cd</r>");
  auto extents = ComputeExtents(**doc);
  EXPECT_EQ(extents[0].chars, Interval(0, 4));
}

// ----------------------------------------------------------- conflicts

TEST(ConflictTest, DetectsCrossHierarchyOverlapWithinOneDoc) {
  // Flat encoding with ranges an analyst might inspect: w at [3,9),
  // line at [0,6) → proper overlap.
  std::vector<ElementExtent> extents = {
      {nullptr, "line", Interval(0, 6)},
      {nullptr, "line", Interval(6, 12)},
      {nullptr, "w", Interval(3, 9)},
  };
  auto conflicts = FindTagConflicts(extents);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].tag_a, "line");
  EXPECT_EQ(conflicts[0].tag_b, "w");
  EXPECT_EQ(conflicts[0].instance_count, 2u);  // w overlaps both lines
}

TEST(ConflictTest, ContainmentIsNotConflict) {
  std::vector<ElementExtent> extents = {
      {nullptr, "s", Interval(0, 10)},
      {nullptr, "w", Interval(2, 5)},
  };
  EXPECT_TRUE(FindTagConflicts(extents).empty());
}

TEST(ConflictTest, SameTagOverlapCounts) {
  std::vector<ElementExtent> extents = {
      {nullptr, "a", Interval(0, 5)},
      {nullptr, "a", Interval(3, 8)},
  };
  auto conflicts = FindTagConflicts(extents);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].tag_a, "a");
  EXPECT_EQ(conflicts[0].tag_b, "a");
}

TEST(ConflictTest, PartitionSeparatesConflictingTags) {
  std::vector<TagConflict> conflicts = {
      {"line", "w", 1},
      {"res", "w", 1},
      {"res", "line", 1},
  };
  auto groups = PartitionIntoHierarchies({"line", "w", "res", "s"},
                                         conflicts);
  // line, w, res pairwise conflict => three groups; s conflicts with
  // nothing and joins the first group.
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<std::string>{"line", "s"}));
  EXPECT_EQ(groups[1], (std::vector<std::string>{"w"}));
  EXPECT_EQ(groups[2], (std::vector<std::string>{"res"}));
}

TEST(ConflictTest, NoConflictsOneGroup) {
  auto groups = PartitionIntoHierarchies({"a", "b", "c"}, {});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 3u);
}

// -------------------------------------------------- distributed document

TEST(DistributedDocumentTest, BoethiusParses) {
  auto corpus = workload::MakeBoethiusCorpus();
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  const DistributedDocument& doc = *corpus->doc;
  EXPECT_EQ(doc.size(), 4u);
  EXPECT_EQ(doc.content(), workload::BoethiusContent());
  EXPECT_TRUE(doc.ValidateAll().ok()) << doc.ValidateAll();
}

TEST(DistributedDocumentTest, WrongSourceCountRejected) {
  auto cmh = workload::MakeBoethiusCmh();
  ASSERT_TRUE(cmh.ok());
  auto doc = DistributedDocument::Parse(*cmh, {"<r/>"});
  EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
}

TEST(DistributedDocumentTest, ContentDisagreementRejected) {
  ConcurrentHierarchies cmh("r");
  ASSERT_TRUE(cmh.AddHierarchy(
                     "a", MustParseDtd("<!ELEMENT r (x*)><!ELEMENT x ANY>"))
                  .ok());
  ASSERT_TRUE(cmh.AddHierarchy(
                     "b", MustParseDtd("<!ELEMENT r (y*)><!ELEMENT y ANY>"))
                  .ok());
  auto doc = DistributedDocument::Parse(
      cmh, {"<r><x>abc</x></r>", "<r><y>abX</y></r>"});
  EXPECT_EQ(doc.status().code(), StatusCode::kValidationError);
  EXPECT_NE(doc.status().message().find("content"), std::string::npos);
}

TEST(DistributedDocumentTest, WrongRootRejected) {
  ConcurrentHierarchies cmh("r");
  ASSERT_TRUE(cmh.AddHierarchy("a", MustParseDtd("<!ELEMENT r ANY>")).ok());
  auto doc = DistributedDocument::Parse(cmh, {"<book>abc</book>"});
  EXPECT_EQ(doc.status().code(), StatusCode::kValidationError);
}

TEST(DistributedDocumentTest, ForeignElementRejected) {
  ConcurrentHierarchies cmh("r");
  ASSERT_TRUE(cmh.AddHierarchy(
                     "a", MustParseDtd("<!ELEMENT r (x*)><!ELEMENT x ANY>"))
                  .ok());
  // <y> is not in hierarchy a's vocabulary.
  auto doc = DistributedDocument::Parse(cmh, {"<r><y>abc</y></r>"});
  EXPECT_EQ(doc.status().code(), StatusCode::kValidationError);
  EXPECT_NE(doc.status().message().find("'y'"), std::string::npos);
}

TEST(DistributedDocumentTest, MalformedSourceRejected) {
  ConcurrentHierarchies cmh("r");
  ASSERT_TRUE(cmh.AddHierarchy("a", MustParseDtd("<!ELEMENT r ANY>")).ok());
  auto doc = DistributedDocument::Parse(cmh, {"<r><unclosed></r>"});
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
}

TEST(DistributedDocumentTest, BoethiusEncodingsConflict) {
  // The paper's observation: the four encodings are mutually conflicting,
  // which is exactly why a single XML document cannot hold them.
  auto corpus = workload::MakeBoethiusCorpus();
  ASSERT_TRUE(corpus.ok());
  std::vector<ElementExtent> all;
  for (HierarchyId h = 0; h < 4; ++h) {
    auto extents = ComputeExtents(corpus->doc->document(h));
    // Skip the shared root (index 0), which never conflicts.
    all.insert(all.end(), extents.begin() + 1, extents.end());
  }
  auto conflicts = FindTagConflicts(all);
  auto has = [&](const char* a, const char* b) {
    for (const auto& c : conflicts) {
      if ((c.tag_a == a && c.tag_b == b) || (c.tag_a == b && c.tag_b == a)) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has("line", "w"));    // asungen crosses the line break
  EXPECT_TRUE(has("res", "w"));     // res starts inside 'fitte'
  EXPECT_TRUE(has("dmg", "w"));     // dmg starts inside 'ongan'
  EXPECT_TRUE(has("line", "res"));  // res crosses the line break
}

}  // namespace
}  // namespace cxml::cmh
