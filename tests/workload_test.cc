#include <gtest/gtest.h>

#include "goddag/algebra.h"
#include "goddag/builder.h"
#include "sacx/goddag_handler.h"
#include "workload/generator.h"

namespace cxml::workload {
namespace {

TEST(GeneratorTest, ProducesConsistentDistributedDocument) {
  GeneratorParams params;
  params.content_chars = 2000;
  params.extra_hierarchies = 2;
  auto corpus = GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_EQ(corpus->cmh->size(), 4u);  // physical, linguistic, ann0, ann1
  EXPECT_EQ(corpus->sources.size(), 4u);
  EXPECT_GE(corpus->doc->content().size(), params.content_chars);
  EXPECT_TRUE(corpus->doc->ValidateAll().ok())
      << corpus->doc->ValidateAll();
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  GeneratorParams params;
  params.content_chars = 1000;
  auto a = GenerateManuscript(params);
  auto b = GenerateManuscript(params);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->sources, b->sources);
  params.seed = 43;
  auto c = GenerateManuscript(params);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->sources, c->sources);
}

TEST(GeneratorTest, GoddagBuildsAndValidates) {
  GeneratorParams params;
  params.content_chars = 3000;
  params.extra_hierarchies = 3;
  auto corpus = GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok());
  auto g = goddag::Builder::Build(*corpus->doc);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_TRUE(g->Validate().ok()) << g->Validate();
  // SACX agrees with the DOM-based builder.
  auto g2 = sacx::ParseToGoddag(*corpus->cmh, corpus->SourceViews());
  ASSERT_TRUE(g2.ok()) << g2.status();
  EXPECT_EQ(g2->num_leaves(), g->num_leaves());
  EXPECT_EQ(g2->AllElements().size(), g->AllElements().size());
}

TEST(GeneratorTest, ProducesOverlap) {
  GeneratorParams params;
  params.content_chars = 5000;
  params.extra_hierarchies = 1;
  params.annotation_density = 6.0;
  auto corpus = GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok());
  auto g = goddag::Builder::Build(*corpus->doc);
  ASSERT_TRUE(g.ok());
  // Lines are cut at fixed offsets, so words must straddle them.
  auto pairs = goddag::FindOverlappingPairs(*g, "w", "line");
  EXPECT_GT(pairs.size(), 10u);
  // Random annotations overlap words too.
  auto ann_pairs = goddag::FindOverlappingPairs(*g, "a0", "w");
  EXPECT_GT(ann_pairs.size(), 0u);
}

TEST(GeneratorTest, ScalesHierarchyCount) {
  for (size_t extra : {0u, 1u, 4u}) {
    GeneratorParams params;
    params.content_chars = 1000;
    params.extra_hierarchies = extra;
    auto corpus = GenerateManuscript(params);
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    EXPECT_EQ(corpus->cmh->size(), 2 + extra);
  }
}

TEST(GeneratorTest, ZeroAnnotationDensityPlacesNone) {
  GeneratorParams params;
  params.content_chars = 2000;
  params.annotation_density = 0.0;
  auto corpus = GenerateManuscript(params);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  auto g = goddag::Builder::Build(*corpus->doc);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_TRUE(g->ElementsByTag("a0").empty());
  EXPECT_TRUE(g->ElementsByTag("a1").empty());
  // The other hierarchies are as at any density.
  EXPECT_FALSE(g->ElementsByTag("w").empty());
  params.annotation_density = 0.1;
  auto sparse = GenerateManuscript(params);
  ASSERT_TRUE(sparse.ok()) << sparse.status();
  auto h = goddag::Builder::Build(*sparse->doc);
  ASSERT_TRUE(h.ok()) << h.status();
  EXPECT_FALSE(h->ElementsByTag("a0").empty());
}

TEST(GeneratorTest, RejectsZeroParams) {
  GeneratorParams params;
  params.content_chars = 0;
  EXPECT_FALSE(GenerateManuscript(params).ok());
}

}  // namespace
}  // namespace cxml::workload
