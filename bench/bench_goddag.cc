// GODDAG construction and structure cost (the paper's Figure 2;
// goddag_test.cc checks the invariants).
//
// Reports build time plus node/leaf counters as the overlap density of
// the annotation hierarchies grows: leaves multiply with boundary
// density (the paper's leaf-partition model), while per-hierarchy tree
// sizes stay fixed.
//
// Series:
//   BM_GoddagBuildDensity/D — build at annotation density D per 1k chars
//   BM_GoddagNavigation     — parent/child pointer chasing
//   BM_DocumentOrderSort    — document-order normalisation
//   BM_GoddagValidate       — full invariant check (I1–I5)

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "goddag/algebra.h"
#include "goddag/builder.h"
#include "sacx/goddag_handler.h"

namespace cxml {
namespace {

void BM_GoddagBuildDensity(benchmark::State& state) {
  double density = static_cast<double>(state.range(0));
  const auto& corpus = bench::GetCorpus(10'000, 2, density);
  auto views = corpus.SourceViews();
  size_t leaves = 0, elements = 0;
  for (auto _ : state) {
    auto g = sacx::ParseToGoddag(*corpus.cmh, views);
    if (!g.ok()) state.SkipWithError(g.status().ToString().c_str());
    leaves = g->num_leaves();
    elements = g->AllElements().size();
    benchmark::DoNotOptimize(g);
  }
  state.counters["leaves"] = static_cast<double>(leaves);
  state.counters["elements"] = static_cast<double>(elements);
}
BENCHMARK(BM_GoddagBuildDensity)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_GoddagNavigation(benchmark::State& state) {
  const auto& corpus = bench::GetCorpus(10'000, 2);
  auto g = sacx::ParseToGoddag(*corpus.cmh, corpus.SourceViews());
  if (!g.ok()) {
    state.SkipWithError(g.status().ToString().c_str());
    return;
  }
  // Chase every leaf's parent chain in every hierarchy.
  for (auto _ : state) {
    size_t hops = 0;
    for (auto leaf : g->leaves()) {
      for (goddag::HierarchyId h = 0; h < g->num_hierarchies(); ++h) {
        goddag::NodeId node = g->leaf_parent(leaf, h);
        while (node != g->root()) {
          node = g->parent(node);
          ++hops;
        }
      }
    }
    benchmark::DoNotOptimize(hops);
  }
}
BENCHMARK(BM_GoddagNavigation);

void BM_DocumentOrderSort(benchmark::State& state) {
  const auto& corpus = bench::GetCorpus(10'000, 2);
  auto g = sacx::ParseToGoddag(*corpus.cmh, corpus.SourceViews());
  if (!g.ok()) {
    state.SkipWithError(g.status().ToString().c_str());
    return;
  }
  std::vector<goddag::NodeId> nodes = g->AllElements();
  for (auto _ : state) {
    std::vector<goddag::NodeId> shuffled(nodes.rbegin(), nodes.rend());
    g->SortDocumentOrder(&shuffled);
    benchmark::DoNotOptimize(shuffled);
  }
  state.counters["nodes"] = static_cast<double>(nodes.size());
}
BENCHMARK(BM_DocumentOrderSort);

void BM_GoddagValidate(benchmark::State& state) {
  const auto& corpus =
      bench::GetCorpus(static_cast<size_t>(state.range(0)), 2);
  auto g = sacx::ParseToGoddag(*corpus.cmh, corpus.SourceViews());
  if (!g.ok()) {
    state.SkipWithError(g.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Status st = g->Validate();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_GoddagValidate)->Arg(2'000)->Arg(10'000)->Arg(50'000);

void BM_ExtentIndexBuild(benchmark::State& state) {
  const auto& corpus =
      bench::GetCorpus(static_cast<size_t>(state.range(0)), 2);
  auto g = sacx::ParseToGoddag(*corpus.cmh, corpus.SourceViews());
  if (!g.ok()) {
    state.SkipWithError(g.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    goddag::ExtentIndex index(*g);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_ExtentIndexBuild)->Arg(2'000)->Arg(10'000)->Arg(50'000);

}  // namespace
}  // namespace cxml

BENCHMARK_MAIN();
