// The paper's core query claim — "XPath and
// XQuery are inefficient in expressing certain important information
// needs over concurrent XML documents (e.g., requests for overlapping
// content given two tags)"; the Extended XPath's `overlapping` axis over
// the GODDAG answers them directly — plus the PR 4 cold-path claim:
// the goddag::SnapshotIndex turns the global axes (descendant,
// ancestor, following, preceding, overlapping) from O(N) full scans
// per context node into O(log N + matches) pool searches.
//
// Like bench_service/bench_server this driver has its own main and
// emits one JSON object (stdout + BENCH_query.json) so the cold-query
// trajectory is machine-readable across PRs:
//
//   bench_query [content_chars]
//
// Series (all on the synthetic manuscript, 2 extra hierarchies):
//   index_build_us          — one SnapshotIndex construction
//   descendant_*            — //line//w, indexed vs naive-scan
//   ancestor_*              — //w/ancestor::line, indexed vs naive-scan
//   leaf_ancestor_*         — count(/descendant::text()/ancestor::w),
//                             indexed vs naive: every one-leaf w has the
//                             leaf's extent, so tree ancestry decides
//                             (the equal-extent check, once per such w)
//   overlap_*               — //w[overlapping::line], indexed vs naive
//   semijoin_ancestor_*     — count(//w[ancestor::s[@n='k']]), indexed
//                             vs naive. The w candidates outnumber the
//                             s pool, so the indexed engine answers the
//                             existential step from the small side: it
//                             builds R (the one s passing the filter)
//                             and marks the w pool from it (Dominated)
//   semijoin_overlap_*      — count(//w[overlapping::line[@n='k']]), the
//                             same from one line (OverlappingOf)
//   semijoin_positional_*   — count(//w[overlapping::line[@n='k']][2]):
//                             the join, then the per-parent regroup [2]
//                             needs (read_cold's `//w[...][w]` shape)
//   attr_range_*            — count(//line[@n >= k and @n < k+10]) (a
//                             compiled attribute filter)
//   overlap_baseline_join_us— the fragmentation-DOM comparator, which
//                             must reassemble logical elements by
//                             joining fragments before extents compare
//   index_patch_p50_us      — SnapshotIndex::Patch of one small commit
//                             (exact median of 48)
//   index_rebuild_p50_us    — the full constructor on the same version
//                             (exact median of the same 48 reps)
//   patch_speedup           — rebuild / patch
//   cold_after_commit_p50_us— patch + first query (what a reader pays
//                             right after a commit), vs cold_fresh_p50_us
//
// Each axis series records indexed (cold_*) and naive p50/p99. The run
// aborts when indexed and naive answers disagree (the bench is
// also an equivalence check), when patched and rebuilt indexes answer
// differently, or — at >= 20k chars — when the indexed descendant axis
// is not >= 10x faster than the naive scan (PR 4), positional pushdown
// is not >= 5x (PR 5), patching is not >= 10x faster than rebuilding,
// or the first post-commit query costs more than 2x a fresh document's
// cold query.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baseline/fragment_join.h"
#include "common/strings.h"
#include "bench_util.h"
#include "dom/document.h"
#include "drivers/fragmentation.h"
#include "edit/editor.h"
#include "goddag/snapshot_index.h"
#include "sacx/goddag_handler.h"
#include "xpath/engine.h"

namespace cxml {
namespace {

using Clock = std::chrono::steady_clock;
using bench::Percentile;

#define BENCH_CHECK(cond)                                                \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "BENCH CHECK FAILED: %s (%s:%d)\n", #cond,    \
                   __FILE__, __LINE__);                                  \
      std::abort();                                                      \
    }                                                                    \
  } while (0)

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count() * 1e6;
}

/// The exact median of raw samples (the mean of the middle two for an
/// even count). A gate dividing one median by another reads this, not
/// Percentile: one ~9% histogram bucket step moves such a ratio by as
/// much as the margin it checks.
double ExactMedian(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

struct AxisSeries {
  const char* name;
  std::string query;
  double cold_p50_us = 0;
  double cold_p99_us = 0;
  double naive_p50_us = 0;
  double naive_p99_us = 0;
  double answers = 0;

  double speedup() const {
    return naive_p50_us / (cold_p50_us > 0 ? cold_p50_us : 1e-9);
  }
};

/// Evaluates `query` `reps` times on `engine`, returning per-rep
/// latencies (µs) and checking every rep agrees on the numeric answer.
std::vector<double> TimeQuery(xpath::XPathEngine* engine,
                              const std::string& query, int reps,
                              const goddag::Goddag& g, double* answer) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    Clock::time_point t0 = Clock::now();
    auto result = engine->Evaluate(query);
    double us = MicrosSince(t0);
    BENCH_CHECK(result.ok());
    double value = result->ToNumber(g);
    if (i == 0) {
      *answer = value;
    } else {
      BENCH_CHECK(value == *answer);
    }
    samples.push_back(us);
  }
  return samples;
}

int Run(size_t content_chars) {
  const auto& corpus = bench::GetCorpus(content_chars, 2);
  auto built = sacx::ParseToGoddag(*corpus.cmh, corpus.SourceViews());
  BENCH_CHECK(built.ok());
  goddag::Goddag g = std::move(built).value();

  // ---- index construction cost (what one published version pays) ----
  double index_build_us = 0;
  {
    constexpr int kBuildReps = 5;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kBuildReps; ++i) {
      goddag::SnapshotIndex index(g);
      BENCH_CHECK(index.num_ranked() > 0);
    }
    index_build_us = MicrosSince(t0) / kBuildReps;
  }

  // ---- cold axes: indexed (shared snapshot index) vs naive scans ----
  // The indexed engine adopts one prebuilt index, exactly like the
  // service's per-request engines over a DocumentSnapshot's index; the
  // naive engine runs the paper-literal scans. Result-cache effects are
  // out of scope here — every evaluation does the full axis work.
  auto index = std::make_shared<const goddag::SnapshotIndex>(g);
  xpath::XPathEngine indexed(g);
  indexed.UseSnapshotIndex(index);
  xpath::XPathEngine naive(g);
  naive.SetAxisStrategy(xpath::AxisStrategy::kNaiveScan);

  const int indexed_reps = 30;
  const int naive_reps = content_chars >= 20000 ? 5 : 10;
  // The predicate series pick a middle sentence, and the first line
  // from the middle on that some w straddles, so every answer is
  // non-zero.
  const size_t k_s = g.ElementsByTag("s").size() / 2 + 1;
  const size_t lines = g.ElementsByTag("line").size();
  size_t k_line = lines / 2 + 1;
  for (; k_line < lines; ++k_line) {
    auto straddling = indexed.Evaluate(
        StrFormat("count(//line[@n='%zu']/overlapping::w)", k_line));
    BENCH_CHECK(straddling.ok());
    if (straddling->ToNumber(g) > 0) break;
  }
  // The positional series needs a line two w of one s straddle.
  size_t k_pos = k_line;
  for (; k_pos < lines; ++k_pos) {
    auto second = indexed.Evaluate(
        StrFormat("count(//w[overlapping::line[@n='%zu']][2])", k_pos));
    BENCH_CHECK(second.ok());
    if (second->ToNumber(g) > 0) break;
  }
  AxisSeries series[] = {
      {"descendant", "count(//line//w)"},
      {"ancestor", "count(//w/ancestor::line)"},
      {"leaf_ancestor", "count(/descendant::text()/ancestor::w)"},
      {"overlap", "count(//w[overlapping::line])"},
      {"semijoin_ancestor",
       StrFormat("count(//w[ancestor::s[@n='%zu']])", k_s)},
      {"semijoin_overlap",
       StrFormat("count(//w[overlapping::line[@n='%zu']])", k_line)},
      {"semijoin_positional",
       StrFormat("count(//w[overlapping::line[@n='%zu']][2])", k_pos)},
      {"attr_range", StrFormat("count(//line[@n >= %zu and @n < %zu])",
                               k_line, k_line + 10)},
  };
  std::vector<double> cold_all;
  for (AxisSeries& s : series) {
    double indexed_answer = 0;
    double naive_answer = 0;
    std::vector<double> cold =
        TimeQuery(&indexed, s.query, indexed_reps, g, &indexed_answer);
    std::vector<double> slow =
        TimeQuery(&naive, s.query, naive_reps, g, &naive_answer);
    // The equivalence bar: both strategies must agree exactly.
    BENCH_CHECK(indexed_answer == naive_answer);
    s.answers = indexed_answer;
    cold_all.insert(cold_all.end(), cold.begin(), cold.end());
    s.cold_p50_us = Percentile(&cold, 0.5);
    s.cold_p99_us = Percentile(&cold, 0.99);
    s.naive_p50_us = Percentile(&slow, 0.5);
    s.naive_p99_us = Percentile(&slow, 0.99);
  }

  // The PR 4 acceptance bar: the indexed descendant axis must beat the
  // naive scan by at least 10x on the 20k-char manuscript.
  if (content_chars >= 20000) {
    BENCH_CHECK(series[0].speedup() >= 10.0);
  }

  // ---- incremental maintenance: patch-on-publish vs full rebuild ----
  // One small commit per rep against a fresh clone of the manuscript:
  // the successor's index is built twice, once by SnapshotIndex::Patch
  // from the predecessor's index and once by the full constructor, and
  // both must answer the axis queries byte-identically (the runtime
  // cross-check behind the acceptance bar). cold_after_commit is the
  // first-query latency a reader pays right after a commit under
  // patching (patch + one evaluation); cold_fresh is the same first
  // query when the version had to rebuild from scratch. Patch and
  // rebuild alternate within each rep, so host noise hits both series
  // alike, and patch_speedup divides their exact medians.
  double index_patch_p50_us = 0;
  double index_rebuild_p50_us = 0;
  double cold_after_commit_p50_us = 0;
  double cold_fresh_p50_us = 0;
  double patch_pools_shared_avg = 0;
  uint64_t patch_total = 0;
  uint64_t rebuild_total = 0;
  uint64_t pool_reuse_total = 0;
  std::vector<double> patch_samples;
  {
    constexpr int kCommitReps = 48;
    std::vector<double> rebuild_samples;
    std::vector<double> cold_after;
    std::vector<double> cold_fresh;
    size_t cursor = 0;
    for (int rep = 0; rep < kCommitReps; ++rep) {
      goddag::Goddag clone = g.Clone(corpus.cmh.get());
      auto editor = edit::Editor::Create(&clone);
      BENCH_CHECK(editor.ok());
      // First 24-char gap free of a0 annotations at/after a moving
      // cursor, so successive commits dirty different offsets.
      std::vector<Interval> taken;
      for (goddag::NodeId n : clone.ElementsByTag("a0")) {
        taken.push_back(clone.char_range(n));
      }
      size_t offset = cursor % (clone.content().size() / 2);
      for (;;) {
        bool collides = false;
        for (const Interval& t : taken) {
          if (offset < t.end && t.begin < offset + 24) {
            offset = t.end;
            collides = true;
            break;
          }
        }
        if (!collides) break;
      }
      BENCH_CHECK(offset + 24 <= clone.content().size());
      cursor = offset + 64;
      edit::InsertOp op;
      op.hierarchy = 2;
      op.tag = "a0";
      op.chars = Interval(offset, offset + 24);
      BENCH_CHECK(editor->Insert(op).ok());

      goddag::SnapshotIndex::PatchStats pstats;
      Clock::time_point t0 = Clock::now();
      auto patched = goddag::SnapshotIndex::Patch(
          *index, clone, editor->index_delta(), &pstats);
      double patch_us = MicrosSince(t0);
      BENCH_CHECK(patched != nullptr);
      ++patch_total;
      pool_reuse_total += pstats.pools_shared;
      patch_pools_shared_avg += static_cast<double>(pstats.pools_shared);
      patch_samples.push_back(patch_us);

      t0 = Clock::now();
      auto fresh = std::make_shared<const goddag::SnapshotIndex>(clone);
      double rebuild_us = MicrosSince(t0);
      ++rebuild_total;
      rebuild_samples.push_back(rebuild_us);

      // First post-commit query each way (before any warmup on these
      // engines), then the byte-identical cross-check.
      xpath::XPathEngine via_patch(clone);
      via_patch.UseSnapshotIndex(patched);
      xpath::XPathEngine via_fresh(clone);
      via_fresh.UseSnapshotIndex(fresh);
      t0 = Clock::now();
      BENCH_CHECK(via_patch.Evaluate(series[0].query).ok());
      cold_after.push_back(patch_us + MicrosSince(t0));
      t0 = Clock::now();
      BENCH_CHECK(via_fresh.Evaluate(series[0].query).ok());
      cold_fresh.push_back(rebuild_us + MicrosSince(t0));
      for (const AxisSeries& s : series) {
        auto a = via_patch.EvaluateToStrings(s.query);
        auto b = via_fresh.EvaluateToStrings(s.query);
        BENCH_CHECK(a.ok() && b.ok());
        BENCH_CHECK(*a == *b);
      }
    }
    index_patch_p50_us = ExactMedian(patch_samples);
    index_rebuild_p50_us = ExactMedian(rebuild_samples);
    cold_after_commit_p50_us = Percentile(&cold_after, 0.5);
    cold_fresh_p50_us = Percentile(&cold_fresh, 0.5);
    patch_pools_shared_avg /= kCommitReps;
  }
  double patch_speedup =
      index_rebuild_p50_us /
      (index_patch_p50_us > 0 ? index_patch_p50_us : 1e-9);
  std::fprintf(stderr,
               "incremental: patch_p50 %.1fus rebuild_p50 %.1fus "
               "speedup %.2fx cold_after %.1fus cold_fresh %.1fus\n",
               index_patch_p50_us, index_rebuild_p50_us, patch_speedup,
               cold_after_commit_p50_us, cold_fresh_p50_us);
  // The acceptance bar for incremental maintenance: patching must beat
  // the full rebuild by >= 10x at 20k chars, and the first query after
  // a commit must cost no more than 2x a fresh document's cold query.
  if (content_chars >= 20000) {
    BENCH_CHECK(patch_speedup >= 10.0);
    BENCH_CHECK(cold_after_commit_p50_us <= 2.0 * cold_fresh_p50_us);
  }

  // ---- registry snapshot: the same metric names a live service
  // exposes over METRICS, fed from this driver's own measurements so
  // BENCH_query.json carries a comparable "obs" object (cold
  // evaluations land in cxml_query_us; the engines' axis-strategy
  // tallies become the cxml_axis_*_total counters).
  obs::Registry registry;
  {
    obs::Histogram* query_us = registry.GetHistogram("cxml_query_us");
    for (const double us : cold_all) query_us->Observe(us);
    registry.GetHistogram("cxml_index_build_us")->Observe(index_build_us);
    const xpath::AxisStats& indexed_axes = indexed.axis_stats();
    const xpath::AxisStats& naive_axes = naive.axis_stats();
    registry.GetCounter("cxml_axis_indexed_total")
        ->Add(indexed_axes.indexed_axes);
    registry.GetCounter("cxml_axis_pushdown_total")
        ->Add(indexed_axes.pushdown_axes);
    registry.GetCounter("cxml_axis_naive_total")
        ->Add(indexed_axes.naive_axes + naive_axes.naive_axes);
    registry.GetCounter("cxml_axis_pool_nodes_total")
        ->Add(indexed_axes.pool_nodes + naive_axes.pool_nodes);
    registry.GetCounter("cxml_axis_filter_preds_total")
        ->Add(indexed_axes.filter_preds);
    registry.GetCounter("cxml_axis_exists_preds_total")
        ->Add(indexed_axes.exists_preds);
    registry.GetCounter("cxml_axis_restricted_pools_total")
        ->Add(indexed_axes.restricted_pools);
    registry.GetCounter("cxml_axis_semijoins_total")
        ->Add(indexed_axes.semijoins);
    registry.GetCounter("cxml_index_patch_total")->Add(patch_total);
    registry.GetCounter("cxml_index_rebuild_total")->Add(rebuild_total);
    registry.GetCounter("cxml_index_pool_reuse_total")
        ->Add(pool_reuse_total);
    obs::Histogram* patch_us = registry.GetHistogram("cxml_index_patch_us");
    for (const double us : patch_samples) patch_us->Observe(us);
  }

  // ---- prepared vs ad-hoc (the per-request parse/analysis cost) ----
  // Prepared: one xpath::Compile, then Evaluate(compiled) per rep — the
  // compile-once/bind-many path the service's QueryHandle rides.
  // Ad-hoc: the same canonical query submitted as a textually unique
  // string per rep (trailing-space variants), so every call pays parse
  // + analysis — the cost the engine's raw-text LRU cannot absorb for
  // non-repeating text, and exactly what QPREPARE removes.
  double prepared_p50_us = 0;
  double adhoc_p50_us = 0;
  {
    const char* kExpr = "string(/descendant::w[1])";
    auto compiled = xpath::Compile(kExpr);
    BENCH_CHECK(compiled.ok());
    constexpr int kPreparedReps = 400;
    std::vector<double> prepared_samples;
    std::vector<double> adhoc_samples;
    prepared_samples.reserve(kPreparedReps);
    adhoc_samples.reserve(kPreparedReps);
    std::string prepared_answer;
    for (int i = 0; i < kPreparedReps; ++i) {
      Clock::time_point t0 = Clock::now();
      auto value = indexed.Evaluate(**compiled);
      double us = MicrosSince(t0);
      BENCH_CHECK(value.ok());
      std::string rendered = value->ToString(g);
      if (i == 0) {
        prepared_answer = rendered;
      } else {
        BENCH_CHECK(rendered == prepared_answer);
      }
      prepared_samples.push_back(us);
    }
    std::string padded(kExpr);
    for (int i = 0; i < kPreparedReps; ++i) {
      padded.push_back(' ');  // unique text, same canonical query
      Clock::time_point t0 = Clock::now();
      auto value = indexed.Evaluate(padded);
      double us = MicrosSince(t0);
      BENCH_CHECK(value.ok());
      BENCH_CHECK(value->ToString(g) == prepared_answer);
      adhoc_samples.push_back(us);
    }
    prepared_p50_us = Percentile(&prepared_samples, 0.5);
    adhoc_p50_us = Percentile(&adhoc_samples, 0.5);
    // Ad-hoc strictly adds parse work to the identical evaluation, so
    // the prepared path must not lose.
    BENCH_CHECK(prepared_p50_us <= adhoc_p50_us);
  }
  double prepared_speedup =
      adhoc_p50_us / (prepared_p50_us > 0 ? prepared_p50_us : 1e-9);

  // ---- positional pushdown: [1]/[last()] inside the pool scan ----
  // The same compiled query through three evaluators: indexed with the
  // pushdown (default), indexed without (materialises the full
  // descendant window before the predicate — the PR 4 behavior), and
  // the naive scan as the equivalence oracle.
  double positional_p50_us = 0;
  double positional_nopush_p50_us = 0;
  double positional_naive_p50_us = 0;
  double positional_answers = 0;
  {
    const char* kPositional =
        "count(/descendant::w[1]) + count(/descendant::w[last()])";
    xpath::XPathEngine nopush(g);
    nopush.UseSnapshotIndex(index);
    nopush.SetPositionalPushdown(false);
    double push_answer = 0;
    double nopush_answer = 0;
    double naive_answer = 0;
    std::vector<double> push_samples =
        TimeQuery(&indexed, kPositional, indexed_reps, g, &push_answer);
    std::vector<double> nopush_samples =
        TimeQuery(&nopush, kPositional, indexed_reps, g, &nopush_answer);
    std::vector<double> naive_samples =
        TimeQuery(&naive, kPositional, naive_reps, g, &naive_answer);
    BENCH_CHECK(push_answer == nopush_answer);
    BENCH_CHECK(push_answer == naive_answer);
    positional_answers = push_answer;
    positional_p50_us = Percentile(&push_samples, 0.5);
    positional_nopush_p50_us = Percentile(&nopush_samples, 0.5);
    positional_naive_p50_us = Percentile(&naive_samples, 0.5);
  }
  double positional_speedup =
      positional_nopush_p50_us /
      (positional_p50_us > 0 ? positional_p50_us : 1e-9);
  // The PR 5 acceptance bar: pushing [1]/[last()] into the pool scan
  // must be a clear win over materialising the window at 20k chars.
  if (content_chars >= 20000) {
    BENCH_CHECK(positional_speedup >= 5.0);
  }

  // ---- the fragmentation-DOM comparator (the paper's baseline) ----
  double overlap_baseline_join_us = 0;
  {
    auto frag = drivers::ExportFragmentation(g);
    BENCH_CHECK(frag.ok());
    auto dom = dom::ParseDocument(*frag);
    BENCH_CHECK(dom.ok());
    constexpr int kJoinReps = 5;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kJoinReps; ++i) {
      auto joined = baseline::JoinFragments(**dom);
      auto pairs =
          baseline::FindOverlappingPairsBaseline(joined, "w", "line");
      BENCH_CHECK(!pairs.empty());
    }
    overlap_baseline_join_us = MicrosSince(t0) / kJoinReps;
  }

  auto emit = [&](std::FILE* f) {
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"bench\": \"query\", \"content_chars\": %zu,\n"
                 "  \"index_build_us\": %.1f,\n",
                 content_chars, index_build_us);
    for (const AxisSeries& s : series) {
      std::fprintf(f,
                   "  \"%s_cold_p50_us\": %.1f, \"%s_cold_p99_us\": %.1f, "
                   "\"%s_naive_p50_us\": %.1f, \"%s_naive_p99_us\": %.1f, "
                   "\"%s_speedup\": %.1f, \"%s_answers\": %.0f,\n",
                   s.name, s.cold_p50_us, s.name, s.cold_p99_us, s.name,
                   s.naive_p50_us, s.name, s.naive_p99_us, s.name,
                   s.speedup(), s.name, s.answers);
    }
    std::fprintf(f,
                 "  \"prepared_p50_us\": %.2f, \"adhoc_p50_us\": %.2f, "
                 "\"prepared_speedup\": %.2f,\n",
                 prepared_p50_us, adhoc_p50_us, prepared_speedup);
    std::fprintf(f,
                 "  \"positional_p50_us\": %.2f, "
                 "\"positional_nopush_p50_us\": %.2f, "
                 "\"positional_naive_p50_us\": %.2f, "
                 "\"positional_speedup\": %.1f, "
                 "\"positional_answers\": %.0f,\n",
                 positional_p50_us, positional_nopush_p50_us,
                 positional_naive_p50_us, positional_speedup,
                 positional_answers);
    std::fprintf(f,
                 "  \"index_patch_p50_us\": %.1f, "
                 "\"index_rebuild_p50_us\": %.1f, "
                 "\"patch_speedup\": %.1f,\n"
                 "  \"cold_after_commit_p50_us\": %.1f, "
                 "\"cold_fresh_p50_us\": %.1f, "
                 "\"patch_pools_shared_avg\": %.1f,\n",
                 index_patch_p50_us, index_rebuild_p50_us, patch_speedup,
                 cold_after_commit_p50_us, cold_fresh_p50_us,
                 patch_pools_shared_avg);
    std::fprintf(f, "  \"overlap_baseline_join_us\": %.1f,\n",
                 overlap_baseline_join_us);
    std::fprintf(f, "  \"obs\": %s\n}\n", registry.RenderJson().c_str());
  };
  emit(stdout);
  std::FILE* out = std::fopen("BENCH_query.json", "w");
  if (out != nullptr) {
    emit(out);
    std::fclose(out);
  }
  return 0;
}

}  // namespace
}  // namespace cxml

int main(int argc, char** argv) {
  size_t content_chars =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20000;
  return cxml::Run(content_chars);
}
