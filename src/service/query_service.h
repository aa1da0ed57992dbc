#ifndef CXML_SERVICE_QUERY_SERVICE_H_
#define CXML_SERVICE_QUERY_SERVICE_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/document_store.h"
#include "service/query_cache.h"
#include "service/thread_pool.h"
#include "service/write_pipeline.h"
#include "xpath/compiled.h"
#include "xquery/xquery.h"

namespace cxml::service {

struct QueryRequest {
  std::string document;
  std::string query;
  QueryKind kind = QueryKind::kXPath;
};

/// A prepared query — the service-level compile-once/bind-many handle.
/// Document-independent (Prepare never touches a snapshot) and
/// immutable, so one handle is safely shared across threads and
/// connections and submitted against any document, any number of
/// times. Exactly one of `xpath`/`xquery` is set, matching `kind`.
struct PreparedQuery {
  QueryKind kind = QueryKind::kXPath;
  /// The expression text as submitted (error messages only).
  std::string text;
  /// Canonical rendering + precomputed hash — the result-cache
  /// identity shared by every textual variant of the query.
  std::string canonical;
  uint64_t canonical_hash = 0;
  xpath::CompiledQueryPtr xpath;
  xquery::CompiledQueryPtr xquery;
};

using QueryHandle = std::shared_ptr<const PreparedQuery>;

struct QueryResponse {
  Status status;
  /// String-rendered result items (see XPathEngine::EvaluateToStrings /
  /// XQueryEngine::Run); shared with the cache on a hit.
  CachedResult items;
  /// Document version the query ran against.
  uint64_t version = 0;
  bool cache_hit = false;

  bool ok() const { return status.ok(); }
};

struct ServiceStats {
  uint64_t requests = 0;
  uint64_t errors = 0;
  /// Prepare() compilations that missed the prepared-handle caches
  /// (string submissions resolve through the same counters).
  uint64_t prepares = 0;
  /// Cold snapshot-index builds that patched the predecessor version's
  /// index vs paying the full rebuild (see SnapshotIndex::Patch).
  uint64_t index_patches = 0;
  uint64_t index_rebuilds = 0;
  /// Entries in the canonical prepared-handle registry, expired ones
  /// included until a prune drops them.
  uint64_t prepared_registered = 0;
  CacheStats cache;
  /// Writer-pipeline counters (group commits, errors).
  WriteStats writes;
};

struct QueryServiceOptions {
  /// Pool threads for Submit's cache misses (the QCOLL fan-out);
  /// Execute runs on the caller's thread and never uses the pool.
  size_t num_threads = 4;
  size_t cache_capacity = 1024;
  /// Workers draining the per-document writer queues. Kept separate
  /// from the read pool so a group commit never waits behind a burst
  /// of cold queries (which would put pool queueing delay, not write
  /// work, in the commit tail). One writer thread suffices for most
  /// loads because write batching absorbs bursts; raise it when many
  /// distinct documents take writes concurrently.
  size_t num_write_threads = 1;
  /// Bounded LRU of (kind, raw text) → QueryHandle, so hot string
  /// submissions pay one string hash instead of a parse per request.
  size_t prepared_cache_capacity = 256;
  /// Where the service registers its metrics (counters, latency
  /// histograms, cache/write/tracer tallies). nullptr → the service
  /// owns a private registry, so multiple services in one process
  /// (tests, benches) never mix numbers; a server process passes one
  /// registry (or obs::Registry::Global()) to get a single exposition
  /// surface.
  obs::Registry* registry = nullptr;
  /// Finished request traces retained for the TRACE verb (FIFO ring).
  size_t trace_ring_capacity = 64;
  /// Every Nth finished trace is retained (1 = all; 0 disables tracing
  /// and the slow-query log entirely).
  uint32_t trace_sample_every = 1;
  /// Requests slower than this (end-to-end µs) emit one structured
  /// slow-query log line; 0 disables. net::ServerOptions::slow_query_us
  /// forwards here via Tracer::set_slow_query_us.
  uint64_t slow_query_us = 0;
};

/// Executes Extended XPath / XQuery requests against DocumentStore
/// snapshots along one stateless read path: take the document's
/// current snapshot, look the result up in the cache, and on a miss
/// evaluate with a per-request engine that adopts the snapshot's
/// shared goddag::SnapshotIndex (built or patched once per published
/// version, by whichever request gets there first). Nothing on the
/// path is per-document or exclusive, so requests on one document run
/// as concurrently as requests on many.
///
/// Execute runs that path on the caller's thread. Submit answers a
/// cache hit at once and posts a miss to a fixed-size pool — the
/// asynchronous form RunCollectionQuery fans out across documents.
///
/// The query API is compile-once/bind-many: Prepare() compiles an
/// expression into a document-independent QueryHandle (deduplicated by
/// canonical text, so every connection preparing the same query shares
/// one object), and Execute/Submit(document, handle) run it with zero
/// per-request parse or canonicalization work. String submission is a
/// thin wrapper: a bounded LRU maps (kind, raw text) → handle, so the
/// hot string path still pays only one hash + lookup.
///
/// Results are memoised in a (document, version, generation, canonical
/// query hash, kind)-keyed LRU cache — textually different but
/// canonically identical queries share one entry — and a DocumentStore
/// version listener invalidates a document's stale entries the moment
/// an edit::Session commit publishes a new version.
///
/// Writes batch through the per-document WritePipeline
/// (SubmitEdit / SubmitCommit; registrations and removals through
/// pipeline()), drained by a dedicated writer lane (ThreadPool of
/// num_write_threads) so commits never queue behind cold reads: a
/// writer claims every pending op-set for a document, clones once
/// (structural storage::Clone) and publishes one group commit — so N
/// queued edits cost one clone + one version bump + one cache
/// invalidation instead of N.
class QueryService {
 public:
  explicit QueryService(DocumentStore* store, QueryServiceOptions options =
                                                  QueryServiceOptions());
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Compiles a query into a reusable, document-independent handle.
  /// Parse + static analysis run at most once per distinct canonical
  /// query: handles are deduplicated through a canonical-keyed
  /// registry, so concurrent Prepares of textual variants all receive
  /// the same shared object.
  Result<QueryHandle> Prepare(const std::string& query, QueryKind kind);

  /// Runs the read path on the calling thread. The string form
  /// resolves the expression through the prepared-handle cache
  /// (compiling on first sight) and otherwise behaves exactly like the
  /// handle form. An optional trace rides along: the path adds
  /// cache/index/eval stages under `trace_parent`.
  QueryResponse Execute(QueryRequest request);
  QueryResponse Execute(std::string document, QueryHandle handle,
                        obs::TracePtr trace = nullptr,
                        int trace_parent = -1);
  /// The result-cache half of Execute alone, for a caller that must
  /// never evaluate (the server's poll thread). A hit is answered into
  /// `response` and booked exactly as Execute books it — one request,
  /// one cache hit, a `cache` stage under `trace_parent` — and returns
  /// true. A miss or a missing document returns false and leaves no
  /// counted lookup and no stage: the Execute the caller falls back to
  /// makes the request's one counted lookup.
  bool ExecuteCached(const std::string& document, const QueryHandle& handle,
                     const obs::TracePtr& trace, int trace_parent,
                     QueryResponse* response);

  /// Asynchronous form of Execute: the snapshot and cache lookup run
  /// on the calling thread, so a hit (or a missing document) comes back
  /// as a ready future; a miss is evaluated on the pool, with its wait
  /// there traced as a `queue` stage.
  std::future<QueryResponse> Submit(QueryRequest request);
  std::future<QueryResponse> Submit(std::string document,
                                    QueryHandle handle,
                                    obs::TracePtr trace = nullptr,
                                    int trace_parent = -1);
  /// Submit against a snapshot the caller already holds: the answer is
  /// that version's even if the document is edited or removed before
  /// it runs (how RunCollectionQuery reads its selection).
  std::future<QueryResponse> Submit(SnapshotPtr snap, QueryHandle handle,
                                    obs::TracePtr trace = nullptr,
                                    int trace_parent = -1);

  /// Routes a write through the per-document writer pipeline: FIFO
  /// with the document's other pending writes, grouped into one clone
  /// + one publish + one cache invalidation per batch. `apply` runs
  /// exactly once. `wal_op_sets` is the write's wire op text for the
  /// durability sink (see WritePipeline::SubmitEdit).
  std::future<EditResponse> SubmitEdit(
      std::string document, EditFn apply,
      std::vector<std::string> wal_op_sets = {});
  /// Synchronous convenience: SubmitEdit + wait.
  EditResponse ExecuteEdit(std::string document, EditFn apply,
                           std::vector<std::string> wal_op_sets = {});
  /// Queues an EBEGIN-style transaction's commit behind the document's
  /// pending writes; optimistic conflicts surface unchanged.
  std::future<EditResponse> SubmitCommit(
      std::string document, std::unique_ptr<EditTransaction> txn,
      std::vector<std::string> wal_op_sets = {});

  ServiceStats stats() const;
  QueryCache& cache() { return cache_; }
  DocumentStore& store() { return *store_; }
  WritePipeline& pipeline() { return pipeline_; }
  /// The metrics registry every layer of this service reports into —
  /// the external one from QueryServiceOptions::registry, or the
  /// service-owned private one. Backs RenderText for the METRICS verb.
  obs::Registry* registry() { return registry_; }
  /// The request tracer (sampling ring + slow-query log). net::Server
  /// starts/finishes traces here; the service only adds stages.
  obs::Tracer& tracer() { return tracer_; }

 private:
  /// The result-cache lookup: a hit is answered into `response`. With
  /// `count_miss` false a miss is neither tallied nor traced.
  bool CacheHit(const DocumentSnapshot& snap, const PreparedQuery& query,
                const obs::TracePtr& trace, int trace_parent,
                QueryResponse* response, bool count_miss = true);
  /// Submit once the snapshot is pinned: a hit comes back ready, a miss
  /// is posted to the pool. `start` opens the request's read path time.
  std::future<QueryResponse> Dispatch(obs::Trace::Clock::time_point start,
                                      SnapshotPtr snap, QueryHandle handle,
                                      obs::TracePtr trace, int trace_parent);
  /// The miss half: the snapshot's shared index (a build or patch is
  /// charged to the request that did it), one per-request engine over
  /// it, and the cache fill.
  QueryResponse Evaluate(const DocumentSnapshot& snap,
                         const PreparedQuery& query,
                         const obs::TracePtr& trace, int trace_parent);
  /// Books a finished request: counters plus `service_us` (its read
  /// path time, queue wait excluded) in cxml_query_us.
  void Finish(const QueryResponse& response, double service_us);
  /// A string request whose expression failed to compile.
  QueryResponse Rejected(Status status);

  DocumentStore* store_;
  /// Declared before every member that registers metrics (cache_,
  /// tracer_, pipeline_): initialization order is declaration order.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  obs::Tracer tracer_;
  QueryCache cache_;
  uint64_t listener_id_ = 0;

  /// Request accounting on lock-free obs counters — concurrent
  /// callers and pool workers bump them without a lock, and stats()
  /// reads exact sums without stopping anyone.
  obs::Counter* requests_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* prepares_ = nullptr;
  /// Per-request latency breakdown (µs): read path, pool queue wait
  /// (Submit misses only), evaluation (cache misses only), and the
  /// one-time snapshot index build attributed to the request that paid
  /// it.
  obs::Histogram* query_us_ = nullptr;
  obs::Histogram* queue_us_ = nullptr;
  obs::Histogram* eval_us_ = nullptr;
  obs::Histogram* index_build_us_ = nullptr;
  /// Incremental-index observability: cold builds that patched vs
  /// fully rebuilt, pools aliased from the predecessor, and patch
  /// latency (full-rebuild latency stays in cxml_index_build_us).
  obs::Counter* index_patch_total_ = nullptr;
  obs::Counter* index_rebuild_total_ = nullptr;
  obs::Counter* index_pool_reuse_total_ = nullptr;
  obs::Histogram* index_patch_us_ = nullptr;
  /// Evaluator strategy tallies (see xpath::AxisStats) — the per-axis
  /// selectivity feed for the planned cost-based planner — and which
  /// predicate plans ran.
  obs::Counter* axis_indexed_ = nullptr;
  obs::Counter* axis_naive_ = nullptr;
  obs::Counter* axis_pushdown_ = nullptr;
  obs::Counter* axis_pool_nodes_ = nullptr;
  obs::Counter* axis_filter_preds_ = nullptr;
  obs::Counter* axis_exists_preds_ = nullptr;
  obs::Counter* axis_restricted_pools_ = nullptr;
  obs::Counter* axis_semijoins_ = nullptr;

  /// Prepared-handle state: the raw-text LRU keeps hot string
  /// submissions parse-free; the canonical registry dedupes handles so
  /// textual variants (and every connection) share one object. The
  /// registry holds weak_ptrs — it never pins memory for queries
  /// nobody references — and drops the expired ones once it holds more
  /// than `prepared_prune_at_` entries: 4x the LRU at first, then twice
  /// what the last prune kept, so live handles (which never expire) are
  /// rescanned at amortised O(1) per insert.
  mutable std::mutex prepared_mu_;
  StringLruCache<QueryHandle> prepared_lru_;
  std::map<std::string, std::weak_ptr<const PreparedQuery>>
      prepared_registry_;
  size_t prepared_prune_at_;

  /// Declared after the query state: workers must stop before the
  /// state above dies (the destructor's Shutdown drains them).
  ThreadPool pool_;
  /// The writer lane: its own (small) pool so commits never queue
  /// behind cold reads. Declared before the pipeline that submits to
  /// it; ~QueryService shuts both pools down before members die.
  ThreadPool write_pool_;
  WritePipeline pipeline_;
};

}  // namespace cxml::service

#endif  // CXML_SERVICE_QUERY_SERVICE_H_
