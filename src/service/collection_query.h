#ifndef CXML_SERVICE_COLLECTION_QUERY_H_
#define CXML_SERVICE_COLLECTION_QUERY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/trace.h"
#include "service/query_service.h"

namespace cxml::service {

/// Glob match over document names: `*` matches any run of characters,
/// `?` matches exactly one; everything else is literal. A pattern with
/// no glob characters selects exactly one document.
bool GlobMatch(std::string_view pattern, std::string_view name);

struct CollectionQueryOptions {
  /// Per-collection cap on result items summed across documents; a
  /// collection that would answer more is cut off in (document, rank)
  /// order and flagged `truncated`.
  size_t max_results = 4096;
};

/// One document's slice of a collection answer, in rank order.
struct CollectionDocResult {
  std::string document;
  uint64_t version = 0;
  std::vector<std::string> items;
};

/// A collection answer: per-document results merged in (document,
/// rank) order — documents sorted by name (the store's LIST order),
/// items within a document in the handle's answer order.
struct CollectionResponse {
  Status status;
  std::vector<CollectionDocResult> docs;
  /// Documents the pattern selected (also the fan-out width).
  size_t matched = 0;
  size_t total_items = 0;
  bool truncated = false;

  bool ok() const { return status.ok(); }
};

/// Runs one prepared handle over every document whose name matches
/// `pattern`: the selection comes from the store's sorted LIST and pins
/// each match's current snapshot, the per-document executions fan out
/// through QueryService::Submit over those snapshots (hits answer at
/// once, misses run on the query pool), and the gathered responses are
/// merged deterministically. The answer is a point-in-time read of the
/// selection: an EDIT or REMOVE landing mid-fan-out does not change or
/// fail it. A failing document fails the whole collection (with the
/// document named in the status); zero matches is NotFound. Metrics
/// land in the service registry (`cxml_coll_*`).
CollectionResponse RunCollectionQuery(
    QueryService* service, const std::string& pattern, QueryHandle handle,
    const CollectionQueryOptions& options = CollectionQueryOptions(),
    obs::TracePtr trace = nullptr, int trace_parent = -1);

}  // namespace cxml::service

#endif  // CXML_SERVICE_COLLECTION_QUERY_H_
