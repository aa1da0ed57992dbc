// The framework pipeline of the paper's Figure 3, timed stage by
// stage — representation driver in, SACX parse, GODDAG build, Extended
// XPath query, filter, export. One benchmark per stage plus the full
// end-to-end flow (whose answers integration_test.cc's
// FullPipelineOnBoethius checks).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "drivers/registry.h"
#include "sacx/goddag_handler.h"
#include "xpath/engine.h"

namespace cxml {
namespace {

constexpr size_t kSize = 10'000;

void BM_Stage1_ParseToGoddag(benchmark::State& state) {
  const auto& corpus = bench::GetCorpus(kSize, 2);
  auto views = corpus.SourceViews();
  for (auto _ : state) {
    auto g = sacx::ParseToGoddag(*corpus.cmh, views);
    if (!g.ok()) state.SkipWithError(g.status().ToString().c_str());
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_Stage1_ParseToGoddag);

void BM_Stage2_Query(benchmark::State& state) {
  const auto& corpus = bench::GetCorpus(kSize, 2);
  static auto* g = [&] {
    auto built = sacx::ParseToGoddag(*corpus.cmh, corpus.SourceViews());
    if (!built.ok()) std::abort();
    return new goddag::Goddag(std::move(built).value());
  }();
  xpath::XPathEngine engine(*g);
  for (auto _ : state) {
    auto result = engine.Evaluate("count(//w[overlapping::line])");
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Stage2_Query);

void BM_Stage3_FilterAndExport(benchmark::State& state) {
  const auto& corpus = bench::GetCorpus(kSize, 2);
  static auto* g = [&] {
    auto built = sacx::ParseToGoddag(*corpus.cmh, corpus.SourceViews());
    if (!built.ok()) std::abort();
    return new goddag::Goddag(std::move(built).value());
  }();
  for (auto _ : state) {
    auto filtered = drivers::Filter(*g, {0, 1});
    if (!filtered.ok()) {
      state.SkipWithError(filtered.status().ToString().c_str());
      break;
    }
    auto exported = drivers::Export(*filtered->g,
                                    drivers::Representation::kStandoff);
    if (!exported.ok()) {
      state.SkipWithError(exported.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(exported);
  }
}
BENCHMARK(BM_Stage3_FilterAndExport);

void BM_EndToEnd(benchmark::State& state) {
  // Figure 3, left to right: sources -> SACX -> GODDAG -> query ->
  // filter -> export.
  const auto& corpus =
      bench::GetCorpus(static_cast<size_t>(state.range(0)), 2);
  auto views = corpus.SourceViews();
  for (auto _ : state) {
    auto g = sacx::ParseToGoddag(*corpus.cmh, views);
    if (!g.ok()) {
      state.SkipWithError(g.status().ToString().c_str());
      break;
    }
    xpath::XPathEngine engine(*g);
    auto answer = engine.Evaluate("count(//w[overlapping::line])");
    if (!answer.ok()) {
      state.SkipWithError(answer.status().ToString().c_str());
      break;
    }
    auto filtered = drivers::Filter(*g, {0, 1});
    if (!filtered.ok()) {
      state.SkipWithError(filtered.status().ToString().c_str());
      break;
    }
    auto exported = drivers::Export(*filtered->g,
                                    drivers::Representation::kMilestones);
    if (!exported.ok()) {
      state.SkipWithError(exported.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(exported);
  }
}
BENCHMARK(BM_EndToEnd)->Arg(2'000)->Arg(10'000)->Arg(50'000);

}  // namespace
}  // namespace cxml

BENCHMARK_MAIN();
