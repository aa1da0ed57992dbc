// Authoring cost of the paper's Figure 4 engine (xTagger): markup
// insertion with and without prevalidation, the subsequence
// (potential-validity) check itself, and the applicable-tags menu.
// edit_test.cc checks the verdicts.
//
// The paper's claim: prevalidation is cheap enough to run on every
// keystroke-level edit ("implements prevalidation checking").
//
// Series:
//   BM_InsertRaw            — Goddag::InsertElement + RemoveElement only
//   BM_InsertPrevalidated   — Editor::Insert + Undo (prevalidation on)
//   BM_PotentialValidity/N  — the subsequence check on an N-symbol
//                             child sequence
//   BM_ApplicableTags       — the per-selection markup menu
//   BM_StrictValidation     — full DTD validation of all hierarchies

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "dtd/automata.h"
#include "edit/editor.h"
#include "sacx/goddag_handler.h"

namespace cxml {
namespace {

goddag::Goddag* GetEditableGoddag() {
  static goddag::Goddag* g = [] {
    const auto& corpus = bench::GetCorpus(10'000, 2);
    auto built = sacx::ParseToGoddag(*corpus.cmh, corpus.SourceViews());
    if (!built.ok()) std::abort();
    return new goddag::Goddag(std::move(built).value());
  }();
  return g;
}

void BM_InsertRaw(benchmark::State& state) {
  goddag::Goddag* g = GetEditableGoddag();
  // A clean annotation range in hierarchy "ann0".
  cmh::HierarchyId h = g->cmh()->FindIdByName("ann0");
  size_t pos = g->content().size() / 2;
  Interval span(pos, pos + 10);
  for (auto _ : state) {
    auto node = g->InsertElement(h, "a0", {}, span);
    if (!node.ok()) {
      state.SkipWithError(node.status().ToString().c_str());
      break;
    }
    Status st = g->RemoveElement(*node);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      break;
    }
  }
}
BENCHMARK(BM_InsertRaw);

void BM_InsertPrevalidated(benchmark::State& state) {
  goddag::Goddag* g = GetEditableGoddag();
  auto editor = edit::Editor::Create(g);
  if (!editor.ok()) {
    state.SkipWithError(editor.status().ToString().c_str());
    return;
  }
  edit::InsertOp op;
  op.hierarchy = g->cmh()->FindIdByName("ann0");
  op.tag = "a0";
  size_t pos = g->content().size() / 2;
  op.chars = Interval(pos, pos + 10);
  for (auto _ : state) {
    auto node = editor->Insert(op);
    if (!node.ok()) {
      state.SkipWithError(node.status().ToString().c_str());
      break;
    }
    Status st = editor->Undo();
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      break;
    }
  }
}
BENCHMARK(BM_InsertPrevalidated);

void BM_PotentialValidity(benchmark::State& state) {
  // Content model with real structure; child sequences of length N.
  auto model = dtd::ParseContentModel("(num?,(w|damage|restoration)*)");
  if (!model.ok()) {
    state.SkipWithError("model parse failed");
    return;
  }
  dtd::Nfa nfa = dtd::Nfa::FromContentModel(*model);
  dtd::SubsequenceChecker checker(nfa);
  int w = nfa.FindSymbol("w");
  int dmg = nfa.FindSymbol("damage");
  std::vector<int> sequence;
  for (int64_t i = 0; i < state.range(0); ++i) {
    sequence.push_back(i % 3 == 0 ? dmg : w);
  }
  for (auto _ : state) {
    bool ok = checker.IsPotentiallyValid(sequence);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_PotentialValidity)->Arg(4)->Arg(32)->Arg(256)->Arg(2048);

void BM_ApplicableTags(benchmark::State& state) {
  goddag::Goddag* g = GetEditableGoddag();
  auto editor = edit::Editor::Create(g);
  if (!editor.ok()) {
    state.SkipWithError(editor.status().ToString().c_str());
    return;
  }
  cmh::HierarchyId h = g->cmh()->FindIdByName("ann0");
  size_t pos = g->content().size() / 2;
  Interval span(pos, pos + 10);
  for (auto _ : state) {
    auto menu = editor->ApplicableTags(h, span);
    benchmark::DoNotOptimize(menu);
  }
}
BENCHMARK(BM_ApplicableTags);

void BM_StrictValidation(benchmark::State& state) {
  goddag::Goddag* g = GetEditableGoddag();
  auto editor = edit::Editor::Create(g);
  if (!editor.ok()) {
    state.SkipWithError(editor.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Status st = editor->ValidateStrict();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_StrictValidation);

}  // namespace
}  // namespace cxml

BENCHMARK_MAIN();
