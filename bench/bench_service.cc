// T-SERVICE: throughput of the concurrent document service — stateless
// Extended XPath/XQuery execution against DocumentStore snapshots with
// the (document, version, query) LRU cache, plus the write path: the
// structural clone cost behind BeginEdit and the writer pipeline's
// group-commit latency (commit p50/p99).
//
// Unlike the google-benchmark suites, this driver emits one JSON object
// (stdout + BENCH_service.json) so the throughput trajectory
// (queries/sec, cache hit rate, cold-vs-cached latency, clone µs,
// commit percentiles) is machine-readable across PRs:
//
//   bench_service [content_chars] [num_threads]
//
// The run aborts when a cached repeat query is not faster than its cold
// run, or when the structural clone is not >= 10x cheaper than the
// retained Save/Load snapshot clone — either regression would mean a
// core layer became dead weight.
//
// The write-heavy section measures what a reader pays right after a
// publish (cold_after_commit_p50/p99_us: the successor's index build —
// patched from the predecessor when SnapshotIndex::Patch engages —
// plus one evaluation), cross-checks every patched snapshot's answers
// byte-for-byte against a full rebuild, and aborts at >= 20k chars
// unless most post-commit builds took the incremental path.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "goddag/builder.h"
#include "goddag/snapshot_index.h"
#include "ingest/ingest.h"
#include "service/collection_query.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/document_store.h"
#include "service/query_service.h"
#include "storage/binary.h"
#include "wal/follower.h"
#include "wal/log.h"
#include "wal/manager.h"
#include "workload/generator.h"
#include "xpath/engine.h"

namespace cxml {
namespace {

using Clock = std::chrono::steady_clock;

#define BENCH_CHECK(cond)                                                \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "BENCH CHECK FAILED: %s (%s:%d)\n", #cond,    \
                   __FILE__, __LINE__);                                  \
      std::abort();                                                      \
    }                                                                    \
  } while (0)

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

service::QueryKind ToKind(workload::TrafficOp::Kind kind) {
  return kind == workload::TrafficOp::Kind::kXQuery
             ? service::QueryKind::kXQuery
             : service::QueryKind::kXPath;
}

struct MixResult {
  size_t reads = 0;
  size_t commits = 0;
  size_t rejected_edits = 0;
  double seconds = 0;
  double commit_p50_us = 0;
  double commit_p99_us = 0;
  service::ServiceStats stats;
};

using bench::Percentile;

/// Replays a generated traffic mix: reads go through the service in
/// submission order (async, gathered at the end of each write-delimited
/// burst); writes ride the writer pipeline (structural clone + group
/// commit), measured end to end.
MixResult RunMix(service::QueryService* service,
                 const std::vector<workload::TrafficOp>& ops) {
  MixResult result;
  std::vector<double> commit_us;
  Clock::time_point start = Clock::now();
  std::vector<std::future<service::QueryResponse>> inflight;
  auto drain = [&] {
    for (auto& f : inflight) BENCH_CHECK(f.get().ok());
    inflight.clear();
  };
  for (const workload::TrafficOp& op : ops) {
    if (op.kind == workload::TrafficOp::Kind::kEdit) {
      drain();
      Clock::time_point t0 = Clock::now();
      service::EditResponse committed = service->ExecuteEdit(
          "ms",
          [chars = op.edit_chars, hierarchy = op.edit_hierarchy,
           tag = op.edit_tag](edit::EditSession& session) -> Status {
            CXML_RETURN_IF_ERROR(session.Select(chars));
            return session.Apply(hierarchy, tag).status();
          });
      commit_us.push_back(SecondsSince(t0) * 1e6);
      if (committed.ok()) {
        ++result.commits;
      } else {
        // Rejected inserts (same-hierarchy collisions) are normal
        // traffic; they fail their op-set without poisoning batches.
        ++result.rejected_edits;
      }
    } else {
      ++result.reads;
      inflight.push_back(
          service->Submit({"ms", op.query, ToKind(op.kind)}));
    }
  }
  drain();
  result.seconds = SecondsSince(start);
  result.commit_p50_us = Percentile(&commit_us, 0.5);
  result.commit_p99_us = Percentile(&commit_us, 0.99);
  result.stats = service->stats();
  return result;
}

void PrintMixJson(std::FILE* f, const char* name, const MixResult& m) {
  std::fprintf(
      f,
      "  \"%s\": {\"reads\": %zu, \"commits\": %zu, "
      "\"rejected_edits\": %zu, \"seconds\": %.6f, "
      "\"queries_per_sec\": %.1f, \"cache_hit_rate\": %.4f, "
      "\"commit_p50_us\": %.1f, "
      "\"commit_p99_us\": %.1f, \"write_batches\": %llu}",
      name, m.reads, m.commits, m.rejected_edits, m.seconds,
      m.reads / (m.seconds > 0 ? m.seconds : 1e-9), m.stats.cache.hit_rate(),
      m.commit_p50_us, m.commit_p99_us,
      static_cast<unsigned long long>(m.stats.writes.batches));
}

int Run(size_t content_chars, size_t num_threads) {
  workload::GeneratorParams gen;
  gen.content_chars = content_chars;
  auto corpus = workload::GenerateManuscript(gen);
  BENCH_CHECK(corpus.ok());
  auto g = goddag::Builder::Build(*corpus->doc);
  BENCH_CHECK(g.ok());
  auto bytes = storage::Save(*g);
  BENCH_CHECK(bytes.ok());

  service::DocumentStore store;
  BENCH_CHECK(store.RegisterBytes("ms", *bytes).ok());

  // ---- clone cost: structural vs the Save/Load snapshot oracle ----
  // The structural path is what every BeginEdit pays; the snapshot
  // path is the PR 2 baseline, retained as the equivalence oracle.
  double clone_us = 0;
  double clone_snapshot_us = 0;
  {
    auto base = storage::Load(*bytes);
    BENCH_CHECK(base.ok());
    clone_us = bench::MeasureCloneUs(*base->g, /*reps=*/50);
    clone_snapshot_us =
        bench::MeasureCloneUs(*base->g, /*reps=*/10, /*via_snapshot=*/true);
    // The acceptance bar: the structural clone must beat the
    // serialize->parse round trip by at least 10x.
    BENCH_CHECK(clone_us > 0);
    BENCH_CHECK(clone_us * 10.0 <= clone_snapshot_us);
  }

  // ---- cold vs cached latency of one representative overlap query ----
  service::QueryServiceOptions options;
  options.num_threads = num_threads;
  options.cache_capacity = 4096;
  service::QueryService service(&store, options);
  const service::QueryRequest hot{"ms", "//w[overlapping::line]",
                                  service::QueryKind::kXPath};
  constexpr int kLatencyReps = 20;
  double cold_us = 0;
  double cached_us = 0;
  std::vector<double> cold_samples;
  cold_samples.reserve(kLatencyReps);
  for (int i = 0; i < kLatencyReps; ++i) {
    // Clearing the result cache makes every first Execute re-evaluate;
    // the snapshot's SnapshotIndex survives the clear, so this measures
    // the indexed cold path a production repeat-miss pays.
    service.cache().Clear();
    Clock::time_point t0 = Clock::now();
    BENCH_CHECK(service.Execute(hot).ok());
    cold_samples.push_back(SecondsSince(t0) * 1e6);
    cold_us += cold_samples.back();
    t0 = Clock::now();
    service::QueryResponse warm = service.Execute(hot);
    BENCH_CHECK(warm.ok());
    BENCH_CHECK(warm.cache_hit);
    cached_us += SecondsSince(t0) * 1e6;
  }
  cold_us /= kLatencyReps;
  cached_us /= kLatencyReps;
  double cold_query_p50_us = Percentile(&cold_samples, 0.5);
  double cold_query_p99_us = Percentile(&cold_samples, 0.99);
  // The acceptance bar: a cached repeat must be measurably faster.
  BENCH_CHECK(cached_us < cold_us);

  // ---- durability: WAL group commit, recovery, replication lag ----
  // A separate store/service pair with the write-ahead log attached:
  // every acked commit here is fsynced to disk, so commit latency now
  // includes the commit's own fsync — the durability tax the JSON tracks
  // as wal_commit_p50_us/p99_us against the in-memory commit_p50/p99.
  double wal_commit_p50_us = 0;
  double wal_commit_p99_us = 0;
  double recovery_ms = 0;
  double replication_catchup_ms = 0;
  double replication_lag_us = 0;
  size_t wal_commits = 0;
  {
    const std::string wal_dir = "BENCH_wal_dir";
    BENCH_CHECK(wal::RemoveDirRecursive(wal_dir).ok());
    wal::WalOptions wal_options;
    wal_options.data_dir = wal_dir;
    {
      service::DocumentStore wal_store;
      BENCH_CHECK(wal_store.RegisterBytes("ms", *bytes).ok());
      service::QueryService wal_service(&wal_store, options);
      wal::WalManager wal(wal_options);
      BENCH_CHECK(wal.Open().ok());
      BENCH_CHECK(wal.RecoverAll(&wal_store).ok());
      wal.Attach(&wal_store, &wal_service.pipeline());
      BENCH_CHECK(wal.EnsureRegistered("ms").ok());

      workload::TrafficParams edits;
      edits.content_chars = content_chars;
      edits.write_fraction = 1.0;
      edits.num_ops = 200;
      edits.seed = 7;
      auto edit_ops = workload::GenerateTraffic(edits);
      BENCH_CHECK(edit_ops.ok());
      std::vector<double> wal_us;
      for (const workload::TrafficOp& op : *edit_ops) {
        if (op.kind != workload::TrafficOp::Kind::kEdit) continue;
        std::vector<net::EditOp> wire = {
            net::EditOp::Select(op.edit_chars.begin, op.edit_chars.end),
            net::EditOp::Apply(op.edit_hierarchy, op.edit_tag)};
        Clock::time_point t0 = Clock::now();
        service::EditResponse committed = wal_service.ExecuteEdit(
            "ms",
            [chars = op.edit_chars, hierarchy = op.edit_hierarchy,
             tag = op.edit_tag](edit::EditSession& session) -> Status {
              CXML_RETURN_IF_ERROR(session.Select(chars));
              return session.Apply(hierarchy, tag).status();
            },
            {net::RenderOps(wire)});
        if (committed.ok()) {
          // Only durable publishes count: a rejected op-set never
          // reaches the log, so its latency is not a WAL number.
          wal_us.push_back(SecondsSince(t0) * 1e6);
        }
      }
      wal_commits = wal_us.size();
      BENCH_CHECK(wal_commits > 0);
      wal_commit_p50_us = Percentile(&wal_us, 0.5);
      wal_commit_p99_us = Percentile(&wal_us, 0.99);
      wal.Detach();
      BENCH_CHECK(wal.Flush().ok());
    }
    // The acceptance bar (at the standard 20k-char corpus): a durable
    // group commit stays under 15 ms at the 99th percentile.
    if (content_chars >= 20000) {
      BENCH_CHECK(wal_commit_p99_us <= 15000.0);
    }

    // Crash-recovery cost: rebuild the world from checkpoint + log
    // tail alone, as a restart after SIGKILL would.
    service::DocumentStore recovered_store;
    wal::WalManager recovered_wal(wal_options);
    BENCH_CHECK(recovered_wal.Open().ok());
    wal::RecoveryStats recovery;
    BENCH_CHECK(recovered_wal.RecoverAll(&recovered_store, &recovery).ok());
    BENCH_CHECK(recovery.docs_recovered == 1);
    recovery_ms = recovery.total_ms;

    // Replication: a loopback follower bootstraps from SYNC and tails
    // live commits; catchup is bootstrap-to-current wall time, lag the
    // last record's commit-to-applied delay.
    service::QueryService primary_service(&recovered_store, options);
    recovered_wal.Attach(&recovered_store, &primary_service.pipeline());
    net::ServerOptions server_options;
    server_options.num_workers = 2;
    server_options.sync_source = &recovered_wal;
    net::Server server(&recovered_store, &primary_service, server_options);
    BENCH_CHECK(server.Start().ok());

    service::DocumentStore replica_store;
    service::QueryService replica_service(&replica_store, options);
    wal::FollowerOptions follower_options;
    follower_options.port = server.port();
    follower_options.poll_interval_ms = 2;
    wal::Follower follower(&replica_store, &replica_service,
                           follower_options);
    auto primary_version = recovered_store.GetVersion("ms");
    BENCH_CHECK(primary_version.ok());
    Clock::time_point t0 = Clock::now();
    follower.Start();
    BENCH_CHECK(follower.WaitForVersion("ms", *primary_version,
                                        /*timeout_ms=*/30000) >=
                *primary_version);
    replication_catchup_ms = SecondsSince(t0) * 1e3;

    workload::TrafficParams tail;
    tail.content_chars = content_chars;
    tail.write_fraction = 1.0;
    tail.num_ops = 40;
    tail.seed = 1234;
    auto tail_ops = workload::GenerateTraffic(tail);
    BENCH_CHECK(tail_ops.ok());
    uint64_t last_version = *primary_version;
    for (const workload::TrafficOp& op : *tail_ops) {
      if (op.kind != workload::TrafficOp::Kind::kEdit) continue;
      std::vector<net::EditOp> wire = {
          net::EditOp::Select(op.edit_chars.begin, op.edit_chars.end),
          net::EditOp::Apply(op.edit_hierarchy, op.edit_tag)};
      service::EditResponse committed = primary_service.ExecuteEdit(
          "ms",
          [chars = op.edit_chars, hierarchy = op.edit_hierarchy,
           tag = op.edit_tag](edit::EditSession& session) -> Status {
            CXML_RETURN_IF_ERROR(session.Select(chars));
            return session.Apply(hierarchy, tag).status();
          },
          {net::RenderOps(wire)});
      if (committed.ok()) last_version = committed.version;
    }
    BENCH_CHECK(follower.WaitForVersion("ms", last_version,
                                        /*timeout_ms=*/30000) >=
                last_version);
    replication_lag_us = static_cast<double>(follower.stats().lag_us);
    follower.Stop();
    server.Stop();
    recovered_wal.Detach();
    BENCH_CHECK(wal::RemoveDirRecursive(wal_dir).ok());
  }

  // ---- read-only throughput (cache-friendly skewed mix) ----
  workload::TrafficParams traffic;
  traffic.num_ops = 2000;
  traffic.content_chars = content_chars;
  traffic.write_fraction = 0.0;
  auto read_ops = workload::GenerateTraffic(traffic);
  BENCH_CHECK(read_ops.ok());
  service::QueryService read_service(&store, options);
  MixResult read_only = RunMix(&read_service, *read_ops);

  // ---- mixed read/write (commits invalidate along the way) ----
  traffic.write_fraction = 0.02;
  traffic.seed = 99;
  auto mixed_ops = workload::GenerateTraffic(traffic);
  BENCH_CHECK(mixed_ops.ok());
  service::QueryService mixed_service(&store, options);
  MixResult mixed = RunMix(&mixed_service, *mixed_ops);
  BENCH_CHECK(mixed.commits > 0);

  // ---- write-heavy: incremental index maintenance through the service ----
  // A dedicated store/service pair replays an all-writes trace and
  // queries immediately after every publish, so each sample is the
  // first-reader cost of a fresh version: the cold snapshot-index
  // build (patched from the predecessor when the incremental path
  // engages — see SnapshotIndex::Patch) plus one evaluation. Each rep
  // also re-answers the query against a fully rebuilt index over the
  // same GODDAG and aborts unless the answers are byte-identical —
  // the runtime patched-vs-rebuilt oracle, here at the service layer.
  double cold_after_commit_p50_us = 0;
  double cold_after_commit_p99_us = 0;
  uint64_t service_index_patches = 0;
  uint64_t service_index_rebuilds = 0;
  double index_pools_shared_avg = 0;
  {
    service::DocumentStore write_store;
    BENCH_CHECK(write_store.RegisterBytes("ms", *bytes).ok());
    service::QueryService write_service(&write_store, options);
    // Warm the base version's index so the first commit's successor
    // has a built predecessor to patch from (later successors inherit
    // composed deltas even when a version is never queried).
    BENCH_CHECK(write_service.Execute(hot).ok());

    workload::TrafficParams writes;
    writes.content_chars = content_chars;
    writes.write_fraction = 1.0;
    writes.num_ops = 80;
    writes.seed = 4242;
    auto write_ops = workload::GenerateTraffic(writes);
    BENCH_CHECK(write_ops.ok());
    std::vector<double> after_us;
    for (const workload::TrafficOp& op : *write_ops) {
      if (op.kind != workload::TrafficOp::Kind::kEdit) continue;
      service::EditResponse committed = write_service.ExecuteEdit(
          "ms",
          [chars = op.edit_chars, hierarchy = op.edit_hierarchy,
           tag = op.edit_tag](edit::EditSession& session) -> Status {
            CXML_RETURN_IF_ERROR(session.Select(chars));
            return session.Apply(hierarchy, tag).status();
          });
      if (!committed.ok()) continue;
      uint64_t patches_before = write_service.stats().index_patches;
      Clock::time_point t0 = Clock::now();
      service::QueryResponse first = write_service.Execute(hot);
      after_us.push_back(SecondsSince(t0) * 1e6);
      BENCH_CHECK(first.ok());
      // The publish bumped the version, so this was a cache miss that
      // paid the cold index build.
      BENCH_CHECK(!first.cache_hit);
      BENCH_CHECK(first.version == committed.version);

      auto snap = write_store.GetSnapshot("ms");
      BENCH_CHECK(snap.ok());
      if (write_service.stats().index_patches > patches_before) {
        // Equivalence oracle: the patched index the service just
        // queried must answer exactly like the full constructor.
        xpath::XPathEngine via_patch(*(*snap)->goddag);
        via_patch.UseSnapshotIndex((*snap)->Index());
        xpath::XPathEngine via_fresh(*(*snap)->goddag);
        via_fresh.UseSnapshotIndex(
            std::make_shared<const goddag::SnapshotIndex>(*(*snap)->goddag));
        for (const char* q :
             {"//w[overlapping::line]", "//line//w", "//w/ancestor::line"}) {
          auto a = via_patch.EvaluateToStrings(q);
          auto b = via_fresh.EvaluateToStrings(q);
          BENCH_CHECK(a.ok() && b.ok());
          BENCH_CHECK(*a == *b);
        }
      }
    }
    BENCH_CHECK(!after_us.empty());
    cold_after_commit_p50_us = Percentile(&after_us, 0.5);
    cold_after_commit_p99_us = Percentile(&after_us, 0.99);
    service::ServiceStats write_stats = write_service.stats();
    service_index_patches = write_stats.index_patches;
    service_index_rebuilds = write_stats.index_rebuilds;
    index_pools_shared_avg =
        service_index_patches == 0
            ? 0.0
            : static_cast<double>(write_service.registry()
                                      ->GetCounter(
                                          "cxml_index_pool_reuse_total")
                                      ->Value()) /
                  service_index_patches;
    // The acceptance bar (standard corpus): the incremental path must
    // actually carry the write-heavy load — most post-commit cold
    // builds patch instead of rebuilding.
    if (content_chars >= 20000) {
      BENCH_CHECK(service_index_patches > service_index_rebuilds);
    }
  }

  // ---- ingest + collection fan-out ----
  // A 16-document corpus imported from TEI markup (one document per
  // store shard), then one prepared handle fanned over the whole set
  // via RunCollectionQuery. import_p50_us is the full convention-aware
  // import (parse + fragment merge + CMH assembly + GODDAG build +
  // Register); coll_query_p50_us is the cold fan-out, gated against
  // the cold single-document run — the pool must actually parallelize
  // the per-document executions, not serialize 16 of them.
  constexpr size_t kCollDocs = 16;
  double import_p50_us = 0;
  double coll_query_p50_us = 0;
  double coll_single_p50_us = 0;
  {
    auto make_tei = [](size_t doc) {
      std::string s = "<TEI><text>";
      for (size_t p = 0; p < 24; ++p) {
        s += "<pb n=\"" + std::to_string(p + 1) + "\"/><p>Paragraph " +
             std::to_string(p + 1) + " of document " + std::to_string(doc) +
             " with enough prose to make the span non-trivial.</p>";
      }
      s += "</text></TEI>";
      return s;
    };
    service::DocumentStore coll_store;
    std::vector<double> import_us;
    import_us.reserve(kCollDocs);
    for (size_t d = 0; d < kCollDocs; ++d) {
      std::string source = make_tei(d);
      Clock::time_point t0 = Clock::now();
      auto imported = ingest::Import(source, {ingest::Format::kTei});
      BENCH_CHECK(imported.ok());
      BENCH_CHECK(coll_store
                      .Register("coll/doc" + std::to_string(d),
                                std::move(imported->doc))
                      .ok());
      import_us.push_back(SecondsSince(t0) * 1e6);
    }
    import_p50_us = Percentile(&import_us, 0.5);

    // One query thread per document: the fan-out is measured at full
    // parallelism, so the gate isolates scheduling/merge overhead from
    // plain thread starvation.
    service::QueryServiceOptions coll_options = options;
    coll_options.num_threads = kCollDocs;
    service::QueryService coll_service(&coll_store, coll_options);
    auto handle = coll_service.Prepare("//p", service::QueryKind::kXPath);
    BENCH_CHECK(handle.ok());
    constexpr int kCollReps = 15;
    std::vector<double> single_us;
    std::vector<double> coll_us;
    for (int i = 0; i < kCollReps; ++i) {
      coll_service.cache().Clear();
      Clock::time_point t0 = Clock::now();
      // Through the pool, like each document of the fan-out: Execute
      // would skip the queue hop every fan-out leg pays.
      BENCH_CHECK(coll_service.Submit("coll/doc0", *handle).get().ok());
      single_us.push_back(SecondsSince(t0) * 1e6);
      coll_service.cache().Clear();
      t0 = Clock::now();
      service::CollectionResponse coll = service::RunCollectionQuery(
          &coll_service, "coll/*", *handle);
      coll_us.push_back(SecondsSince(t0) * 1e6);
      BENCH_CHECK(coll.ok());
      BENCH_CHECK(coll.matched == kCollDocs);
      BENCH_CHECK(!coll.truncated);
    }
    coll_single_p50_us = Percentile(&single_us, 0.5);
    coll_query_p50_us = Percentile(&coll_us, 0.5);
    // The acceptance bar: fanning one handle over >= 8 documents costs
    // at most 4x a single cold document run, scaled by the parallelism
    // the machine can actually deliver. With >= kCollDocs cores that is
    // literally "coll <= 4x single" (parallel speedup >= 4); on a
    // 1-core runner no speedup is physically possible, so the same
    // bound degrades to "the fan-out adds <= 4x overhead on top of the
    // unavoidable serial waves" and still catches scheduling or merge
    // pathologies.
    static_assert(kCollDocs >= 8, "the fan-out gate needs 8+ documents");
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    if (hw > kCollDocs) hw = kCollDocs;
    double serial_waves =
        static_cast<double>(kCollDocs) / static_cast<double>(hw);
    BENCH_CHECK(coll_query_p50_us <=
                4.0 * coll_single_p50_us * serial_waves);
  }

  auto emit = [&](std::FILE* f) {
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"bench\": \"service\", \"content_chars\": %zu, "
                 "\"num_threads\": %zu,\n",
                 content_chars, num_threads);
    std::fprintf(f,
                 "  \"cold_query_us\": %.1f, \"cached_query_us\": %.1f, "
                 "\"cold_over_cached\": %.1f,\n",
                 cold_us, cached_us,
                 cold_us / (cached_us > 0 ? cached_us : 1e-9));
    std::fprintf(f,
                 "  \"cold_query_p50_us\": %.1f, "
                 "\"cold_query_p99_us\": %.1f,\n",
                 cold_query_p50_us, cold_query_p99_us);
    std::fprintf(
        f,
        "  \"clone_us\": %.1f, \"clone_snapshot_us\": %.1f, "
        "\"clone_speedup\": %.1f,\n",
        clone_us, clone_snapshot_us,
        clone_snapshot_us / (clone_us > 0 ? clone_us : 1e-9));
    std::fprintf(f,
                 "  \"wal_commits\": %zu, \"wal_commit_p50_us\": %.1f, "
                 "\"wal_commit_p99_us\": %.1f,\n",
                 wal_commits, wal_commit_p50_us, wal_commit_p99_us);
    std::fprintf(f,
                 "  \"recovery_ms\": %.2f, \"replication_catchup_ms\": "
                 "%.2f, \"replication_lag_us\": %.1f,\n",
                 recovery_ms, replication_catchup_ms, replication_lag_us);
    std::fprintf(f,
                 "  \"cold_after_commit_p50_us\": %.1f, "
                 "\"cold_after_commit_p99_us\": %.1f,\n",
                 cold_after_commit_p50_us, cold_after_commit_p99_us);
    std::fprintf(f,
                 "  \"index_patches\": %llu, \"index_rebuilds\": %llu, "
                 "\"index_pools_shared_avg\": %.1f,\n",
                 static_cast<unsigned long long>(service_index_patches),
                 static_cast<unsigned long long>(service_index_rebuilds),
                 index_pools_shared_avg);
    std::fprintf(f,
                 "  \"import_docs\": %zu, \"import_p50_us\": %.1f, "
                 "\"coll_single_p50_us\": %.1f, "
                 "\"coll_query_p50_us\": %.1f,\n",
                 kCollDocs, import_p50_us, coll_single_p50_us,
                 coll_query_p50_us);
    PrintMixJson(f, "read_only", read_only);
    std::fprintf(f, ",\n");
    PrintMixJson(f, "mixed", mixed);
    // The mixed service's full registry snapshot (query/queue/eval/
    // commit histograms, cache and axis-strategy counters): the same
    // numbers METRICS would serve, embedded so regressions in the
    // latency breakdown are visible across PRs, not just the totals.
    std::fprintf(f, ",\n  \"obs\": %s\n}\n",
                 mixed_service.registry()->RenderJson().c_str());
  };
  emit(stdout);
  std::FILE* out = std::fopen("BENCH_service.json", "w");
  if (out != nullptr) {
    emit(out);
    std::fclose(out);
  }
  return 0;
}

}  // namespace
}  // namespace cxml

int main(int argc, char** argv) {
  size_t content_chars = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20000;
  size_t num_threads = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4;
  return cxml::Run(content_chars, num_threads);
}
