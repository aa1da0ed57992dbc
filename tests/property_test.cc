// Property-based tests: parameterized sweeps (TEST_P) over generator
// configurations asserting the framework's invariants hold on every
// corpus shape, not just the hand-built fixtures.

#include <gtest/gtest.h>

#include <random>

#include "drivers/registry.h"
#include "goddag/algebra.h"
#include "goddag/builder.h"
#include "goddag/serializer.h"
#include "sacx/goddag_handler.h"
#include "storage/binary.h"
#include "test_util.h"
#include "workload/generator.h"
#include "xpath/engine.h"

namespace cxml {
namespace {

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

class GoddagPropertyTest : public ::testing::TestWithParam<Config> {
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
    sides_.push_back({g_.get(), "", {}});
  }

  /// One side of a clone taken mid-fuzz: sides_[0] is g_, sides_[1] the
  /// storage::Clone that CloneSide() takes of it.
  struct Side {
    goddag::Goddag* g;
    std::string bytes;  // CXG1 after this side's last step
    std::vector<goddag::NodeId> inserted;
  };

  /// Clones g_; the fuzz goes on mutating both.
  void CloneSide() {
    auto copy = storage::Clone(*g_);
    ASSERT_TRUE(copy.ok()) << copy.status();
    twin_ = std::move(copy).value();
    auto bytes = storage::Save(*g_);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    sides_[0].bytes = *bytes;
    sides_.push_back({twin_.g.get(), *bytes, sides_[0].inserted});
  }

  /// After a step mutated sides_[changed]: it validates, its structural
  /// clone still matches the snapshot oracle, and the other side's CXG1
  /// bytes did not move.
  void CheckStep(size_t changed) {
    const goddag::Goddag& g = *sides_[changed].g;
    ASSERT_TRUE(g.Validate().ok()) << g.Validate();
    ::cxml::testing::ExpectCloneEquivalence(
        g, {"count(//w)", "count(//*)", "count(//w[overlapping::line])"},
        {});
    auto bytes = storage::Save(g);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    sides_[changed].bytes = *bytes;
    for (size_t other = 0; other < sides_.size(); ++other) {
      if (other == changed) continue;
      auto now = storage::Save(*sides_[other].g);
      ASSERT_TRUE(now.ok()) << now.status();
      EXPECT_EQ(*now, sides_[other].bytes)
          << "mutating one side of a clone moved the other";
    }
  }

  std::unique_ptr<workload::SyntheticCorpus> corpus_;
  std::unique_ptr<goddag::Goddag> g_;
  storage::LoadedGoddag twin_;
  std::vector<Side> sides_;
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, GoddagPropertyTest,
    ::testing::Values(Config{500, 0, 4.0, 1}, Config{500, 2, 8.0, 2},
                      Config{2'000, 1, 2.0, 3}, Config{2'000, 3, 16.0, 4},
                      Config{8'000, 2, 4.0, 5}, Config{8'000, 4, 32.0, 6},
                      Config{1'000, 2, 64.0, 7}));

// P1: structural invariants hold for every generated corpus.
TEST_P(GoddagPropertyTest, StructurallyValid) {
  EXPECT_TRUE(g_->Validate().ok()) << g_->Validate();
}

// P2: the two construction paths (streaming SACX, DOM builder) agree.
TEST_P(GoddagPropertyTest, ConstructionPathsAgree) {
  auto dom_g = goddag::Builder::Build(*corpus_->doc);
  ASSERT_TRUE(dom_g.ok()) << dom_g.status();
  auto a = goddag::SerializeAll(*g_);
  auto b = goddag::SerializeAll(*dom_g);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

// P3: serialisation reproduces the generator's sources byte-for-byte.
TEST_P(GoddagPropertyTest, SerializationRoundTripsSources) {
  auto docs = goddag::SerializeAll(*g_);
  ASSERT_TRUE(docs.ok());
  ASSERT_EQ(docs->size(), corpus_->sources.size());
  for (size_t i = 0; i < docs->size(); ++i) {
    EXPECT_EQ((*docs)[i], corpus_->sources[i]) << "hierarchy " << i;
  }
}

// P4: every representation round-trips losslessly.
TEST_P(GoddagPropertyTest, RepresentationsRoundTrip) {
  auto want = goddag::SerializeAll(*g_);
  ASSERT_TRUE(want.ok());
  for (auto repr :
       {drivers::Representation::kFragmentation,
        drivers::Representation::kMilestones,
        drivers::Representation::kStandoff}) {
    auto exported = drivers::Export(*g_, repr);
    ASSERT_TRUE(exported.ok())
        << drivers::RepresentationToString(repr) << exported.status();
    std::vector<std::string_view> views(exported->begin(),
                                        exported->end());
    auto back = drivers::Import(*corpus_->cmh, repr, views);
    ASSERT_TRUE(back.ok())
        << drivers::RepresentationToString(repr) << back.status();
    auto got = goddag::SerializeAll(*back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, *want) << drivers::RepresentationToString(repr);
  }
}

// P5: the overlap relation is symmetric and irreflexive; containment
// and overlap are mutually exclusive.
TEST_P(GoddagPropertyTest, OverlapAlgebraLaws) {
  auto elements = g_->AllElements();
  // Cap the quadratic check on large corpora.
  size_t n = std::min<size_t>(elements.size(), 60);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_FALSE(goddag::Overlaps(*g_, elements[i], elements[i]));
    for (size_t j = 0; j < n; ++j) {
      bool ov = goddag::Overlaps(*g_, elements[i], elements[j]);
      EXPECT_EQ(ov, goddag::Overlaps(*g_, elements[j], elements[i]));
      if (ov) {
        EXPECT_FALSE(goddag::Contains(*g_, elements[i], elements[j]));
        EXPECT_FALSE(goddag::Contains(*g_, elements[j], elements[i]));
      }
    }
  }
}

// P6: the ExtentIndex agrees with brute force on random probes.
TEST_P(GoddagPropertyTest, ExtentIndexCorrect) {
  goddag::ExtentIndex index(*g_);
  auto elements = g_->AllElements();
  std::mt19937_64 rng(GetParam().seed);
  std::uniform_int_distribution<size_t> pick(0, g_->content().size());
  for (int probe = 0; probe < 25; ++probe) {
    size_t a = pick(rng), b = pick(rng);
    Interval query(std::min(a, b), std::max(a, b));
    std::vector<goddag::NodeId> expected;
    for (auto e : elements) {
      if (g_->char_range(e).Overlaps(query)) expected.push_back(e);
    }
    auto got = index.Overlapping(query);
    g_->SortDocumentOrder(&got);
    g_->SortDocumentOrder(&expected);
    EXPECT_EQ(got, expected);
  }
}

// P7: XPath axis laws — parent/child and the following/preceding
// partition relative to extents.
TEST_P(GoddagPropertyTest, XPathAxisLaws) {
  xpath::XPathEngine engine(*g_);
  // Every word's parent chain reaches the root: count(//w) ==
  // count(//w[ancestor::s or parent::r]).
  auto words = engine.Evaluate("count(//w)");
  auto anchored = engine.Evaluate("count(//w[ancestor::*])");
  ASSERT_TRUE(words.ok() && anchored.ok());
  EXPECT_EQ(words->ToNumber(*g_), anchored->ToNumber(*g_));

  // following and preceding of a mid-document node never intersect.
  auto mid = engine.SelectNodes("(//w)[10]");
  if (mid.ok() && !mid->empty()) {
    auto f = engine.EvaluateFrom("count(following::w)", (*mid)[0]);
    auto p = engine.EvaluateFrom("count(preceding::w)", (*mid)[0]);
    auto o = engine.EvaluateFrom("count(overlapping::w)", (*mid)[0]);
    auto total = engine.Evaluate("count(//w)");
    ASSERT_TRUE(f.ok() && p.ok() && o.ok() && total.ok());
    // Words partition into {self} ∪ following ∪ preceding ∪ overlapping
    // ∪ extent-sharing (contained/containing) — so the three disjoint
    // classes never exceed the total minus self.
    EXPECT_LE(f->ToNumber(*g_) + p->ToNumber(*g_) + o->ToNumber(*g_),
              total->ToNumber(*g_) - 1 + 0.5);
  }
}

// P8: mutation fuzz — random insert/remove cycles preserve invariants
// and end where they started, on the original and on a clone taken
// halfway, neither disturbing the other.
TEST_P(GoddagPropertyTest, MutationFuzz) {
  auto before = goddag::SerializeAll(*g_);
  ASSERT_TRUE(before.ok());
  std::mt19937_64 rng(GetParam().seed * 977);
  std::uniform_int_distribution<size_t> pick(0, g_->content().size() - 1);
  cmh::HierarchyId h = 1;  // linguistic: w allowed in s/r mixed models

  // Halfway through, clone and go on inserting into both sides.
  for (int round = 0; round < 20; ++round) {
    if (round == 10) {
      CloneSide();
      if (HasFatalFailure()) return;
    }
    for (size_t i = 0; i < sides_.size(); ++i) {
      size_t a = pick(rng), b = pick(rng);
      if (a == b) continue;
      Interval span(std::min(a, b), std::max(a, b));
      auto node = sides_[i].g->InsertElement(h, "w", {}, span);
      if (!node.ok()) continue;
      sides_[i].inserted.push_back(*node);
      SCOPED_TRACE(::testing::Message() << "side " << i << " after insert ["
                                        << span.begin << "," << span.end
                                        << ")");
      CheckStep(i);
      if (HasFatalFailure()) return;
    }
  }
  // Remove in reverse order (LIFO keeps the structure restorable).
  for (size_t i = 0; i < sides_.size(); ++i) {
    for (auto it = sides_[i].inserted.rbegin();
         it != sides_[i].inserted.rend(); ++it) {
      ASSERT_TRUE(sides_[i].g->RemoveElement(*it).ok());
      SCOPED_TRACE(::testing::Message() << "side " << i << " after remove");
      CheckStep(i);
      if (HasFatalFailure()) return;
    }
  }
  for (const Side& side : sides_) {
    auto after = goddag::SerializeAll(*side.g);
    ASSERT_TRUE(after.ok());
    // Note: leaf splits may remain, but serialisation is split-invariant.
    EXPECT_EQ(*after, *before);
  }
}

// P10: text-edit fuzz — random InsertText/DeleteText/CoalesceLeaves
// sequences keep every invariant and never lose markup elements, on the
// original and on a clone taken halfway, neither disturbing the other.
TEST_P(GoddagPropertyTest, TextEditFuzz) {
  size_t elements_before = g_->AllElements().size();
  std::mt19937_64 rng(GetParam().seed * 31337);
  // Halfway through, clone and go on editing both sides.
  for (int round = 0; round < 15; ++round) {
    if (round == 7) {
      CloneSide();
      if (HasFatalFailure()) return;
    }
    for (size_t i = 0; i < sides_.size(); ++i) {
      goddag::Goddag* g = sides_[i].g;
      std::uniform_int_distribution<size_t> pick(
          0, g->content().empty() ? 0 : g->content().size() - 1);
      switch (round % 3) {
        case 0: {
          ASSERT_TRUE(g->InsertText(pick(rng), "XY").ok());
          break;
        }
        case 1: {
          size_t a = pick(rng), b = pick(rng);
          ASSERT_TRUE(
              g->DeleteText(Interval(std::min(a, b), std::max(a, b))).ok());
          break;
        }
        default:
          g->CoalesceLeaves();
          break;
      }
      SCOPED_TRACE(::testing::Message()
                   << "side " << i << " round " << round);
      CheckStep(i);
      if (HasFatalFailure()) return;
    }
  }
  // Text edits never destroy markup: elements survive (possibly with
  // zero-width extents).
  for (const Side& side : sides_) {
    EXPECT_EQ(side.g->AllElements().size(), elements_before);
  }
}

// P9: filtering any subset keeps content and the kept hierarchies'
// serialisation.
TEST_P(GoddagPropertyTest, FilterPreservesKeptHierarchies) {
  if (g_->num_hierarchies() < 2) return;
  std::vector<cmh::HierarchyId> keep = {0, 1};
  auto filtered = drivers::Filter(*g_, keep);
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  EXPECT_EQ(filtered->g->content(), g_->content());
  for (size_t i = 0; i < keep.size(); ++i) {
    auto a = goddag::SerializeHierarchy(*filtered->g,
                                        static_cast<cmh::HierarchyId>(i));
    auto b = goddag::SerializeHierarchy(*g_, keep[i]);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
  EXPECT_LE(filtered->g->num_leaves(), g_->num_leaves());
}

}  // namespace
}  // namespace cxml
