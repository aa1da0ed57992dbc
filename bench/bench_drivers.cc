// Representation drivers: import/export across the concurrent-markup
// representation zoo (paper §4 "Document manipulation", DKE'05).
//
// Measures per-representation export, import, and full round-trip time;
// round-trip fidelity (exact per-hierarchy serialisation equality) is
// asserted in drivers_test.cc and re-checked here via counters.
//
// Series (R in {distributed, fragmentation, milestones, standoff}):
//   BM_Export/R/size, BM_Import/R/size, BM_Filter/size

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "drivers/registry.h"
#include "sacx/goddag_handler.h"
#include "storage/binary.h"

namespace cxml {
namespace {

const goddag::Goddag& GetGoddag(size_t size) {
  static auto* cache =
      new std::map<size_t, std::unique_ptr<goddag::Goddag>>();
  auto it = cache->find(size);
  if (it == cache->end()) {
    const auto& corpus = bench::GetCorpus(size, 2);
    auto g = sacx::ParseToGoddag(*corpus.cmh, corpus.SourceViews());
    if (!g.ok()) std::abort();
    it = cache
             ->emplace(size, std::make_unique<goddag::Goddag>(
                                 std::move(g).value()))
             .first;
  }
  return *it->second;
}

drivers::Representation Repr(int64_t index) {
  switch (index) {
    case 0:
      return drivers::Representation::kDistributed;
    case 1:
      return drivers::Representation::kFragmentation;
    case 2:
      return drivers::Representation::kMilestones;
    default:
      return drivers::Representation::kStandoff;
  }
}

void BM_Export(benchmark::State& state) {
  const goddag::Goddag& g = GetGoddag(static_cast<size_t>(state.range(1)));
  drivers::Representation repr = Repr(state.range(0));
  size_t bytes = 0;
  for (auto _ : state) {
    auto out = drivers::Export(g, repr);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    bytes = 0;
    for (const auto& doc : *out) bytes += doc.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(drivers::RepresentationToString(repr));
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_Export)
    ->ArgsProduct({{0, 1, 2, 3}, {2'000, 10'000}});

void BM_Import(benchmark::State& state) {
  const goddag::Goddag& g = GetGoddag(static_cast<size_t>(state.range(1)));
  drivers::Representation repr = Repr(state.range(0));
  auto exported = drivers::Export(g, repr);
  if (!exported.ok()) {
    state.SkipWithError(exported.status().ToString().c_str());
    return;
  }
  std::vector<std::string_view> views(exported->begin(), exported->end());
  for (auto _ : state) {
    auto back = drivers::Import(*g.cmh(), repr, views);
    if (!back.ok()) {
      state.SkipWithError(back.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(back);
  }
  state.SetLabel(drivers::RepresentationToString(repr));
}
BENCHMARK(BM_Import)
    ->ArgsProduct({{0, 1, 2, 3}, {2'000, 10'000}});

void BM_Filter(benchmark::State& state) {
  const goddag::Goddag& g = GetGoddag(static_cast<size_t>(state.range(0)));
  // Keep physical + linguistic, drop the annotation hierarchies.
  std::vector<cmh::HierarchyId> keep = {0, 1};
  for (auto _ : state) {
    auto filtered = drivers::Filter(g, keep);
    if (!filtered.ok()) {
      state.SkipWithError(filtered.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(filtered);
  }
}
BENCHMARK(BM_Filter)->Arg(2'000)->Arg(10'000);

void BM_SnapshotSave(benchmark::State& state) {
  const goddag::Goddag& g = GetGoddag(static_cast<size_t>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    auto snapshot = storage::Save(g);
    if (!snapshot.ok()) {
      state.SkipWithError(snapshot.status().ToString().c_str());
      break;
    }
    bytes = snapshot->size();
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SnapshotSave)->Arg(2'000)->Arg(10'000);

void BM_SnapshotLoad(benchmark::State& state) {
  const goddag::Goddag& g = GetGoddag(static_cast<size_t>(state.range(0)));
  auto snapshot = storage::Save(g);
  if (!snapshot.ok()) {
    state.SkipWithError(snapshot.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto loaded = storage::Load(*snapshot);
    if (!loaded.ok()) {
      state.SkipWithError(loaded.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(loaded);
  }
}
BENCHMARK(BM_SnapshotLoad)->Arg(2'000)->Arg(10'000);

}  // namespace
}  // namespace cxml

BENCHMARK_MAIN();
