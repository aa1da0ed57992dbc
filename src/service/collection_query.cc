#include "service/collection_query.h"

#include <chrono>
#include <future>
#include <utility>

#include "common/strings.h"
#include "obs/metrics.h"

namespace cxml::service {

bool GlobMatch(std::string_view pattern, std::string_view name) {
  // Two-pointer scan with one backtrack anchor per '*': linear in
  // practice, never recursive.
  size_t pi = 0, ni = 0;
  size_t star = std::string_view::npos, mark = 0;
  while (ni < name.size()) {
    if (pi < pattern.size() &&
        (pattern[pi] == '?' || pattern[pi] == name[ni])) {
      ++pi;
      ++ni;
    } else if (pi < pattern.size() && pattern[pi] == '*') {
      star = pi++;
      mark = ni;
    } else if (star != std::string_view::npos) {
      pi = star + 1;
      ni = ++mark;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '*') ++pi;
  return pi == pattern.size();
}

CollectionResponse RunCollectionQuery(QueryService* service,
                                      const std::string& pattern,
                                      QueryHandle handle,
                                      const CollectionQueryOptions& options,
                                      obs::TracePtr trace, int trace_parent) {
  obs::Registry* registry = service->registry();
  obs::Counter* queries = registry->GetCounter("cxml_coll_queries_total");
  obs::Counter* errors = registry->GetCounter("cxml_coll_errors_total");
  obs::Counter* truncations =
      registry->GetCounter("cxml_coll_truncated_total");
  obs::Histogram* fanout = registry->GetHistogram("cxml_coll_fanout_docs");
  obs::Histogram* latency = registry->GetHistogram("cxml_coll_query_us");
  queries->Add();
  const auto started = std::chrono::steady_clock::now();
  auto observe_latency = [&] {
    latency->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count()));
  };

  CollectionResponse out;
  if (handle == nullptr) {
    out.status = status::InvalidArgument("collection query needs a handle");
    errors->Add();
    return out;
  }

  // Selection: the store's globally sorted LIST filtered by the glob,
  // which fixes the merge order up front. Each match's snapshot is
  // pinned here, so the collection is a point-in-time read of its
  // selection: a document edited or removed mid-fan-out still answers
  // from the version selected.
  DocumentStore& store = service->store();
  std::vector<SnapshotPtr> selected;
  for (const std::string& name : store.ListDocuments()) {
    if (!GlobMatch(pattern, name)) continue;
    Result<SnapshotPtr> snap = store.GetSnapshot(name);
    if (!snap.ok()) continue;  // removed since the LIST
    selected.push_back(std::move(snap).value());
  }
  out.matched = selected.size();
  fanout->Observe(selected.size());
  if (selected.empty()) {
    out.status = status::NotFound(
        StrCat("no document matches pattern '", pattern, "'"));
    errors->Add();
    observe_latency();
    return out;
  }

  // Fan out: one Submit per document. Cache hits answer at once and
  // misses run in parallel on the query pool; gathering in selection
  // order keeps the merge deterministic regardless of completion order.
  obs::TraceSpan fan_span(trace, "coll_fanout", trace_parent);
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(selected.size());
  for (const SnapshotPtr& snap : selected) {
    futures.push_back(service->Submit(snap, handle));
  }

  for (size_t i = 0; i < selected.size(); ++i) {
    QueryResponse response = futures[i].get();
    if (!response.ok()) {
      out.docs.clear();
      out.status = response.status.WithContext(
          StrCat("collection query on '", selected[i]->name, "'"));
      errors->Add();
      observe_latency();
      return out;
    }
    if (out.truncated) continue;  // keep draining futures, drop items
    CollectionDocResult doc;
    doc.document = selected[i]->name;
    doc.version = response.version;
    if (response.items != nullptr) {
      for (const std::string& item : *response.items) {
        if (out.total_items >= options.max_results) {
          out.truncated = true;
          break;
        }
        doc.items.push_back(item);
        ++out.total_items;
      }
    }
    out.docs.push_back(std::move(doc));
  }
  if (out.truncated) truncations->Add();
  observe_latency();
  return out;
}

}  // namespace cxml::service
