// Parsing concurrent XML with SACX (sacx_test.cc checks the merge).
//
// Reproduces the shape of the SACX evaluation (WIDM'04): merged
// streaming parse time scales linearly with content size and with the
// number of hierarchies, staying within a small constant factor of the
// cost of DOM-parsing every per-hierarchy document separately (which
// SACX subsumes: it also merges and builds the unified structure).
//
// Series:
//   BM_SacxParseToGoddag/size   — SACX merge + streaming GODDAG build
//   BM_DomParsePerDocument/size — baseline: N independent DOM parses
//   BM_DomBuilderGoddag/size    — DOM parses + DOM-based GODDAG build
//   BM_SacxHierarchies/N        — SACX at fixed size, varying hierarchy
//                                 count

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "dom/document.h"
#include "goddag/builder.h"
#include "sacx/goddag_handler.h"

namespace cxml {
namespace {

void BM_SacxParseToGoddag(benchmark::State& state) {
  const auto& corpus =
      bench::GetCorpus(static_cast<size_t>(state.range(0)), 2);
  auto views = corpus.SourceViews();
  size_t bytes = 0;
  for (auto v : views) bytes += v.size();
  for (auto _ : state) {
    auto g = sacx::ParseToGoddag(*corpus.cmh, views);
    if (!g.ok()) state.SkipWithError(g.status().ToString().c_str());
    benchmark::DoNotOptimize(g);
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SacxParseToGoddag)->Arg(2'000)->Arg(10'000)->Arg(50'000);

void BM_DomParsePerDocument(benchmark::State& state) {
  const auto& corpus =
      bench::GetCorpus(static_cast<size_t>(state.range(0)), 2);
  size_t bytes = 0;
  for (const auto& s : corpus.sources) bytes += s.size();
  for (auto _ : state) {
    for (const auto& source : corpus.sources) {
      auto doc = dom::ParseDocument(source);
      if (!doc.ok()) state.SkipWithError(doc.status().ToString().c_str());
      benchmark::DoNotOptimize(doc);
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DomParsePerDocument)->Arg(2'000)->Arg(10'000)->Arg(50'000);

void BM_DomBuilderGoddag(benchmark::State& state) {
  const auto& corpus =
      bench::GetCorpus(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto doc = cmh::DistributedDocument::Parse(*corpus.cmh,
                                               corpus.SourceViews());
    if (!doc.ok()) state.SkipWithError(doc.status().ToString().c_str());
    auto g = goddag::Builder::Build(*doc);
    if (!g.ok()) state.SkipWithError(g.status().ToString().c_str());
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_DomBuilderGoddag)->Arg(2'000)->Arg(10'000)->Arg(50'000);

void BM_SacxHierarchies(benchmark::State& state) {
  // Fixed content, growing number of concurrent hierarchies.
  const auto& corpus =
      bench::GetCorpus(10'000, static_cast<size_t>(state.range(0)));
  auto views = corpus.SourceViews();
  for (auto _ : state) {
    auto g = sacx::ParseToGoddag(*corpus.cmh, views);
    if (!g.ok()) state.SkipWithError(g.status().ToString().c_str());
    benchmark::DoNotOptimize(g);
  }
  state.counters["hierarchies"] =
      static_cast<double>(corpus.cmh->size());
}
BENCHMARK(BM_SacxHierarchies)->Arg(0)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace cxml

BENCHMARK_MAIN();
