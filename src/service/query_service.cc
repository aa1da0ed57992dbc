#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/strings.h"
#include "xpath/engine.h"
#include "xquery/xquery.h"

namespace cxml::service {

namespace {

/// Prepared-handle cache/registry key: one byte of kind + the text, so
/// the same string under the two dialects never collides.
std::string HandleKey(QueryKind kind, std::string_view text) {
  std::string key;
  key.reserve(text.size() + 2);
  key.push_back(kind == QueryKind::kXPath ? 'P' : 'Q');
  key.push_back(':');
  key.append(text);
  return key;
}

using TraceClock = obs::Trace::Clock;

double Micros(TraceClock::time_point from, TraceClock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

QueryKey KeyFor(const DocumentSnapshot& snap, const PreparedQuery& query) {
  return {snap.name,       snap.version,         snap.generation,
          query.canonical, query.canonical_hash, query.kind};
}

std::future<QueryResponse> Ready(QueryResponse response) {
  std::promise<QueryResponse> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

}  // namespace

QueryService::QueryService(DocumentStore* store, QueryServiceOptions options)
    : store_(store),
      owned_registry_(options.registry == nullptr
                          ? std::make_unique<obs::Registry>()
                          : nullptr),
      registry_(options.registry != nullptr ? options.registry
                                            : owned_registry_.get()),
      tracer_(obs::Tracer::Options{options.trace_ring_capacity,
                                   options.trace_sample_every,
                                   options.slow_query_us},
              registry_),
      cache_(options.cache_capacity, registry_),
      prepared_lru_(options.prepared_cache_capacity),
      prepared_prune_at_(4 * prepared_lru_.capacity()),
      pool_(options.num_threads),
      write_pool_(options.num_write_threads == 0
                      ? 1
                      : options.num_write_threads),
      pipeline_(store, &write_pool_, registry_) {
  requests_ = registry_->GetCounter("cxml_service_requests_total");
  errors_ = registry_->GetCounter("cxml_service_errors_total");
  prepares_ = registry_->GetCounter("cxml_service_prepares_total");
  query_us_ = registry_->GetHistogram("cxml_query_us");
  queue_us_ = registry_->GetHistogram("cxml_query_queue_us");
  eval_us_ = registry_->GetHistogram("cxml_query_eval_us");
  index_build_us_ = registry_->GetHistogram("cxml_index_build_us");
  index_patch_total_ = registry_->GetCounter("cxml_index_patch_total");
  index_rebuild_total_ = registry_->GetCounter("cxml_index_rebuild_total");
  index_pool_reuse_total_ =
      registry_->GetCounter("cxml_index_pool_reuse_total");
  index_patch_us_ = registry_->GetHistogram("cxml_index_patch_us");
  axis_indexed_ = registry_->GetCounter("cxml_axis_indexed_total");
  axis_naive_ = registry_->GetCounter("cxml_axis_naive_total");
  axis_pushdown_ = registry_->GetCounter("cxml_axis_pushdown_total");
  axis_pool_nodes_ = registry_->GetCounter("cxml_axis_pool_nodes_total");
  axis_filter_preds_ = registry_->GetCounter("cxml_axis_filter_preds_total");
  axis_exists_preds_ = registry_->GetCounter("cxml_axis_exists_preds_total");
  axis_restricted_pools_ =
      registry_->GetCounter("cxml_axis_restricted_pools_total");
  axis_semijoins_ = registry_->GetCounter("cxml_axis_semijoins_total");
  listener_id_ = store_->AddVersionListener(
      [this](const std::string& name, uint64_t version) {
        cache_.InvalidateBelow(name, version);
      });
}

QueryService::~QueryService() {
  // Drain in-flight pool work (read misses and write batches) first so
  // no worker touches the cache or the pipeline mid-destruction, then
  // detach from the store.
  pool_.Shutdown();
  write_pool_.Shutdown();
  store_->RemoveVersionListener(listener_id_);
}

Result<QueryHandle> QueryService::Prepare(const std::string& query,
                                          QueryKind kind) {
  std::string text_key = HandleKey(kind, query);
  {
    std::lock_guard<std::mutex> lock(prepared_mu_);
    if (const QueryHandle* hit = prepared_lru_.Get(text_key)) return *hit;
  }

  // Compile outside the lock: parsing cost must never serialize other
  // submitters. A racing Prepare of the same text compiles twice; the
  // canonical registry below still collapses the two to one handle.
  auto prepared = std::make_shared<PreparedQuery>();
  prepared->kind = kind;
  prepared->text = query;
  if (kind == QueryKind::kXPath) {
    auto compiled = xpath::Compile(query);
    if (!compiled.ok()) {
      return compiled.status().WithContext(
          StrCat(QueryKindToString(kind), " '", query, "'"));
    }
    prepared->xpath = std::move(compiled).value();
    prepared->canonical = prepared->xpath->canonical();
    prepared->canonical_hash = prepared->xpath->canonical_hash();
  } else {
    auto compiled = xquery::Compile(query);
    if (!compiled.ok()) {
      return compiled.status().WithContext(
          StrCat(QueryKindToString(kind), " '", query, "'"));
    }
    prepared->xquery = std::move(compiled).value();
    prepared->canonical = prepared->xquery->canonical();
    prepared->canonical_hash = prepared->xquery->canonical_hash();
  }
  QueryHandle handle = std::move(prepared);

  prepares_->Add();
  std::lock_guard<std::mutex> lock(prepared_mu_);
  // Dedupe through the canonical registry: textual variants (and every
  // connection preparing the same query) share one live handle.
  std::string canonical_key = HandleKey(kind, handle->canonical);
  auto [it, inserted] = prepared_registry_.try_emplace(canonical_key);
  if (!inserted) {
    if (QueryHandle live = it->second.lock()) {
      prepared_lru_.Put(text_key, live);
      return live;
    }
  }
  it->second = handle;
  if (prepared_registry_.size() > prepared_prune_at_) {
    // Reclaim the entries of expired handles (weak_ptrs never pin a
    // handle, but the map entries need reclaiming).
    for (auto r = prepared_registry_.begin();
         r != prepared_registry_.end();) {
      r = r->second.expired() ? prepared_registry_.erase(r)
                              : std::next(r);
    }
    prepared_prune_at_ = std::max(4 * prepared_lru_.capacity(),
                                  2 * prepared_registry_.size());
  }
  prepared_lru_.Put(text_key, handle);
  return handle;
}

std::future<EditResponse> QueryService::SubmitEdit(
    std::string document, EditFn apply,
    std::vector<std::string> wal_op_sets) {
  return pipeline_.SubmitEdit(std::move(document), std::move(apply),
                              std::move(wal_op_sets));
}

EditResponse QueryService::ExecuteEdit(std::string document, EditFn apply,
                                       std::vector<std::string> wal_op_sets) {
  return SubmitEdit(std::move(document), std::move(apply),
                    std::move(wal_op_sets))
      .get();
}

std::future<EditResponse> QueryService::SubmitCommit(
    std::string document, std::unique_ptr<EditTransaction> txn,
    std::vector<std::string> wal_op_sets) {
  return pipeline_.SubmitCommit(std::move(document), std::move(txn),
                                std::move(wal_op_sets));
}

QueryResponse QueryService::Rejected(Status status) {
  requests_->Add();
  errors_->Add();
  QueryResponse response;
  response.status = std::move(status);
  return response;
}

QueryResponse QueryService::Execute(QueryRequest request) {
  // The string path is a thin wrapper: resolve to a handle (one hash +
  // lookup when hot, a compile on first sight), then share the
  // prepared path.
  Result<QueryHandle> handle = Prepare(request.query, request.kind);
  if (!handle.ok()) return Rejected(handle.status());
  return Execute(std::move(request.document), std::move(handle).value());
}

std::future<QueryResponse> QueryService::Submit(QueryRequest request) {
  Result<QueryHandle> handle = Prepare(request.query, request.kind);
  if (!handle.ok()) return Ready(Rejected(handle.status()));
  return Submit(std::move(request.document), std::move(handle).value());
}

QueryResponse QueryService::Execute(std::string document,
                                    QueryHandle handle,
                                    obs::TracePtr trace,
                                    int trace_parent) {
  TraceClock::time_point start = TraceClock::now();
  QueryResponse response;
  Result<SnapshotPtr> snap = store_->GetSnapshot(document);
  if (!snap.ok()) {
    response.status = snap.status();
  } else if (!CacheHit(**snap, *handle, trace, trace_parent, &response)) {
    response = Evaluate(**snap, *handle, trace, trace_parent);
  }
  Finish(response, Micros(start, TraceClock::now()));
  return response;
}

bool QueryService::ExecuteCached(const std::string& document,
                                 const QueryHandle& handle,
                                 const obs::TracePtr& trace,
                                 int trace_parent, QueryResponse* response) {
  TraceClock::time_point start = TraceClock::now();
  Result<SnapshotPtr> snap = store_->GetSnapshot(document);
  if (!snap.ok() || !CacheHit(**snap, *handle, trace, trace_parent, response,
                              /*count_miss=*/false)) {
    return false;
  }
  Finish(*response, Micros(start, TraceClock::now()));
  return true;
}

std::future<QueryResponse> QueryService::Submit(std::string document,
                                                QueryHandle handle,
                                                obs::TracePtr trace,
                                                int trace_parent) {
  TraceClock::time_point start = TraceClock::now();
  Result<SnapshotPtr> snap = store_->GetSnapshot(document);
  if (!snap.ok()) {
    QueryResponse response;
    response.status = snap.status();
    Finish(response, Micros(start, TraceClock::now()));
    return Ready(std::move(response));
  }
  return Dispatch(start, std::move(snap).value(), std::move(handle),
                  std::move(trace), trace_parent);
}

std::future<QueryResponse> QueryService::Submit(SnapshotPtr snap,
                                                QueryHandle handle,
                                                obs::TracePtr trace,
                                                int trace_parent) {
  return Dispatch(TraceClock::now(), std::move(snap), std::move(handle),
                  std::move(trace), trace_parent);
}

std::future<QueryResponse> QueryService::Dispatch(
    TraceClock::time_point start, SnapshotPtr snap, QueryHandle handle,
    obs::TracePtr trace, int trace_parent) {
  QueryResponse response;
  if (CacheHit(*snap, *handle, trace, trace_parent, &response)) {
    Finish(response, Micros(start, TraceClock::now()));
    return Ready(std::move(response));
  }
  TraceClock::time_point enqueued = TraceClock::now();
  // std::function needs a copyable task, so the promise rides shared.
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> future = promise->get_future();
  bool posted = pool_.Submit([this, promise, snap, handle, trace,
                              trace_parent, start, enqueued] {
    TraceClock::time_point claimed = TraceClock::now();
    queue_us_->Observe(Micros(enqueued, claimed));
    if (trace != nullptr) {
      trace->AddStageAbs("queue", enqueued, claimed, trace_parent);
    }
    QueryResponse answer = Evaluate(*snap, *handle, trace, trace_parent);
    Finish(answer, Micros(start, enqueued) +
                       Micros(claimed, TraceClock::now()));
    promise->set_value(std::move(answer));
  });
  if (!posted) {
    // Pool already shut down: fail the request instead of hanging it.
    response.status = status::FailedPrecondition("query service is shut down");
    Finish(response, Micros(start, enqueued));
    promise->set_value(std::move(response));
  }
  return future;
}

bool QueryService::CacheHit(const DocumentSnapshot& snap,
                            const PreparedQuery& query,
                            const obs::TracePtr& trace, int trace_parent,
                            QueryResponse* response, bool count_miss) {
  // The stage is recorded once the outcome is known, so an uncounted
  // miss leaves none behind.
  TraceClock::time_point begin =
      trace != nullptr ? TraceClock::now() : TraceClock::time_point();
  CachedResult cached = cache_.Get(KeyFor(snap, query), count_miss);
  if (trace != nullptr && (cached != nullptr || count_miss)) {
    trace->SetStageNote(
        trace->AddStageAbs("cache", begin, TraceClock::now(), trace_parent),
        cached != nullptr ? "hit" : "miss");
  }
  if (cached == nullptr) return false;
  response->items = std::move(cached);
  response->version = snap.version;
  response->cache_hit = true;
  return true;
}

QueryResponse QueryService::Evaluate(const DocumentSnapshot& snap,
                                     const PreparedQuery& query,
                                     const obs::TracePtr& trace,
                                     int trace_parent) {
  QueryResponse response;
  response.version = snap.version;

  DocumentSnapshot::IndexBuild build;
  std::shared_ptr<const goddag::SnapshotIndex> index;
  {
    obs::TraceSpan index_span(trace, "index", trace_parent);
    index = snap.Index(&build);
  }
  if (build.built) {
    if (build.patched) {
      index_patch_total_->Add();
      index_pool_reuse_total_->Add(build.pools_shared);
      index_patch_us_->Observe(static_cast<double>(build.us));
    } else {
      index_rebuild_total_->Add();
      index_build_us_->Observe(static_cast<double>(build.us));
    }
  }

  obs::TraceSpan eval_span(trace, "eval", trace_parent);
  TraceClock::time_point eval_start = TraceClock::now();
  xpath::AxisStats axes;
  // A fresh engine per request over the shared immutable index: no
  // request ever sees another's bindings or scratch state.
  auto run = [&]() -> Result<std::vector<std::string>> {
    if (query.kind == QueryKind::kXPath) {
      xpath::XPathEngine engine(*snap.goddag);
      engine.UseSnapshotIndex(std::move(index));
      Result<std::vector<std::string>> r =
          engine.EvaluateToStrings(*query.xpath);
      axes = engine.axis_stats();
      return r;
    }
    xquery::XQueryEngine engine(*snap.goddag);
    engine.UseSnapshotIndex(std::move(index));
    Result<std::vector<std::string>> r = engine.Run(*query.xquery);
    axes = engine.axis_stats();
    return r;
  };
  Result<std::vector<std::string>> items = run();
  eval_us_->Observe(Micros(eval_start, TraceClock::now()));
  eval_span.EndWithNote(axes.Summary());
  if (axes.indexed_axes > 0) axis_indexed_->Add(axes.indexed_axes);
  if (axes.naive_axes > 0) axis_naive_->Add(axes.naive_axes);
  if (axes.pushdown_axes > 0) axis_pushdown_->Add(axes.pushdown_axes);
  if (axes.pool_nodes > 0) axis_pool_nodes_->Add(axes.pool_nodes);
  if (axes.filter_preds > 0) axis_filter_preds_->Add(axes.filter_preds);
  if (axes.exists_preds > 0) axis_exists_preds_->Add(axes.exists_preds);
  if (axes.restricted_pools > 0) {
    axis_restricted_pools_->Add(axes.restricted_pools);
  }
  if (axes.semijoins > 0) axis_semijoins_->Add(axes.semijoins);

  if (!items.ok()) {
    response.status = items.status().WithContext(
        StrCat(QueryKindToString(query.kind), " '", query.text, "'"));
    return response;
  }
  response.items = std::make_shared<const std::vector<std::string>>(
      std::move(items).value());
  cache_.Put(KeyFor(snap, query), response.items);
  return response;
}

void QueryService::Finish(const QueryResponse& response, double service_us) {
  requests_->Add();
  if (!response.ok()) errors_->Add();
  query_us_->Observe(service_us);
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.requests = requests_->Value();
  s.errors = errors_->Value();
  s.prepares = prepares_->Value();
  s.index_patches = index_patch_total_->Value();
  s.index_rebuilds = index_rebuild_total_->Value();
  {
    std::lock_guard<std::mutex> lock(prepared_mu_);
    s.prepared_registered = prepared_registry_.size();
  }
  s.cache = cache_.stats();
  s.writes = pipeline_.stats();
  return s;
}

}  // namespace cxml::service
