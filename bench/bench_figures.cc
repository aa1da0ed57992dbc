// Figures 1, 2 and 4 of the paper: mechanical regeneration of the paper's
// figure artifacts with machine-checkable assertions, plus timing of the
// regeneration itself. Run with --verify (default when invoked without
// google-benchmark flags is to run both benchmarks and checks).
//
// The checks encode what the figures *show*:
//   Figure 1 — four well-formed encodings, identical content, mutually
//              conflicting markup;
//   Figure 2 — one GODDAG: shared root, shared leaf layer, per-hierarchy
//              trees, the known overlap inventory;
//   Figure 4 — the authoring engine produces accept/reject verdicts.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "cmh/conflict.h"
#include "edit/session.h"
#include "goddag/algebra.h"
#include "goddag/builder.h"
#include "goddag/serializer.h"
#include "workload/boethius.h"

namespace cxml {
namespace {

#define FIG_CHECK(cond)                                              \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "FIGURE CHECK FAILED: %s (%s:%d)\n", #cond, \
                   __FILE__, __LINE__);                              \
      std::abort();                                                  \
    }                                                                \
  } while (0)

void VerifyFigures() {
  auto corpus = workload::MakeBoethiusCorpus();
  FIG_CHECK(corpus.ok());
  // --- Figure 1 ---
  FIG_CHECK(corpus->doc->size() == 4);
  FIG_CHECK(corpus->doc->content() == workload::BoethiusContent());
  FIG_CHECK(corpus->doc->ValidateAll().ok());
  std::vector<cmh::ElementExtent> all;
  for (cmh::HierarchyId h = 0; h < 4; ++h) {
    auto extents = cmh::ComputeExtents(corpus->doc->document(h));
    all.insert(all.end(), extents.begin() + 1, extents.end());
  }
  auto conflicts = cmh::FindTagConflicts(all);
  FIG_CHECK(conflicts.size() >= 4);  // w/line, res/w, dmg/w, res/line...

  // --- Figure 2 ---
  auto g = goddag::Builder::Build(*corpus->doc);
  FIG_CHECK(g.ok());
  FIG_CHECK(g->Validate().ok());
  FIG_CHECK(g->root_tag() == "r");
  FIG_CHECK(g->ElementsByTag("w").size() == 13);
  FIG_CHECK(g->ElementsByTag("line").size() == 2);
  FIG_CHECK(goddag::FindOverlappingPairs(*g, "w", "line").size() == 2);
  std::string dot = goddag::ToDot(*g);
  FIG_CHECK(dot.find("digraph goddag") != std::string::npos);
  FIG_CHECK(dot.find("rank=sink") != std::string::npos);

  // --- Figure 4 (authoring verdicts) ---
  auto session = edit::EditSession::Start(&g.value());
  FIG_CHECK(session.ok());
  FIG_CHECK(session->SelectText("se Wisdom").ok());
  FIG_CHECK(session->Apply(corpus->cmh->FindIdByName("damage"), "dmg")
                .ok());
  FIG_CHECK(!session
                 ->Apply(corpus->cmh->FindIdByName("physical"), "line")
                 .ok());
  std::printf("figure checks: Figure 1, Figure 2, Figure 4 artifacts "
              "verified\n");
}

void BM_Figure1_Corpus(benchmark::State& state) {
  for (auto _ : state) {
    auto corpus = workload::MakeBoethiusCorpus();
    if (!corpus.ok()) {
      state.SkipWithError(corpus.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(corpus);
  }
}
BENCHMARK(BM_Figure1_Corpus);

void BM_Figure2_Goddag(benchmark::State& state) {
  auto corpus = workload::MakeBoethiusCorpus();
  if (!corpus.ok()) {
    state.SkipWithError(corpus.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto g = goddag::Builder::Build(*corpus->doc);
    if (!g.ok()) state.SkipWithError(g.status().ToString().c_str());
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_Figure2_Goddag);

void BM_Figure2_DotExport(benchmark::State& state) {
  auto corpus = workload::MakeBoethiusCorpus();
  if (!corpus.ok()) {
    state.SkipWithError(corpus.status().ToString().c_str());
    return;
  }
  auto g = goddag::Builder::Build(*corpus->doc);
  if (!g.ok()) {
    state.SkipWithError(g.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    std::string dot = goddag::ToDot(*g);
    benchmark::DoNotOptimize(dot);
  }
}
BENCHMARK(BM_Figure2_DotExport);

}  // namespace
}  // namespace cxml

int main(int argc, char** argv) {
  cxml::VerifyFigures();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
