#ifndef CXML_SERVICE_QUERY_CACHE_H_
#define CXML_SERVICE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace cxml::service {

/// How a request's query string is interpreted.
enum class QueryKind : uint8_t {
  /// Extended XPath via xpath::XPathEngine.
  kXPath,
  /// FLWOR (or bare expression) via xquery::XQueryEngine.
  kXQuery,
};

const char* QueryKindToString(QueryKind kind);

/// Cache key: results are valid exactly for one registration
/// (`generation`) of a document at one `version`, so neither a version
/// bump from an edit commit nor a same-name re-registration (versions
/// restart at 1, generation differs) can ever serve stale results —
/// superseded entries become unreachable and are evicted eagerly by
/// the store's version listener (InvalidateBelow). The generation in
/// the key also makes a late Put from a worker that pinned a snapshot
/// of a since-removed document harmless: its key can't collide with
/// the replacement's.
///
/// Since PR 5 the query identity is the *canonical* rendering produced
/// by xpath/xquery Compile (plus its precomputed hash), not the raw
/// expression text: textually different but canonically identical
/// queries — whitespace variants, expanded abbreviations — share one
/// entry, and the hot path hashes eight precomputed bytes instead of
/// the expression. The canonical string stays in the key, so a hash
/// collision costs a string compare, never a wrong result.
struct QueryKey {
  std::string document;
  uint64_t version = 0;
  uint64_t generation = 0;
  /// Canonical query text (CompiledQuery::canonical()).
  std::string canonical;
  /// xpath::CanonicalHash(canonical), precomputed at Prepare time.
  uint64_t canonical_hash = 0;
  QueryKind kind = QueryKind::kXPath;

  bool operator==(const QueryKey& o) const {
    return canonical_hash == o.canonical_hash && version == o.version &&
           generation == o.generation && kind == o.kind &&
           document == o.document && canonical == o.canonical;
  }
};

struct QueryKeyHash {
  size_t operator()(const QueryKey& k) const {
    size_t seed = std::hash<std::string>()(k.document);
    seed ^= static_cast<size_t>(k.canonical_hash) + 0x9e3779b97f4a7c15ULL +
            (seed << 6) + (seed >> 2);
    seed ^= std::hash<uint64_t>()(k.version) + (seed << 6) + (seed >> 2);
    seed ^=
        std::hash<uint64_t>()(k.generation) + (seed << 6) + (seed >> 2);
    return seed ^ static_cast<size_t>(k.kind);
  }
};

/// Cached results are shared immutable string vectors: many concurrent
/// readers of a hot query hold the same allocation.
using CachedResult = std::shared_ptr<const std::vector<std::string>>;

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidated = 0;
  size_t size = 0;
  size_t capacity = 0;

  double hit_rate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Thread-safe LRU cache of query results keyed by
/// (document, version, generation, canonical query hash, kind).
///
/// Hit/miss/eviction/invalidation tallies live on obs::Counters in
/// `registry` (cxml_cache_*_total) so the METRICS exposition, STAT,
/// and CacheStats all read the same numbers; a cache constructed
/// without a registry keeps them in a private one.
class QueryCache {
 public:
  explicit QueryCache(size_t capacity, obs::Registry* registry = nullptr)
      : capacity_(capacity) {
    obs::Registry* r =
        registry != nullptr ? registry : &owned_registry_;
    hits_ = r->GetCounter("cxml_cache_hits_total");
    misses_ = r->GetCounter("cxml_cache_misses_total");
    evictions_ = r->GetCounter("cxml_cache_evictions_total");
    invalidated_ = r->GetCounter("cxml_cache_invalidated_total");
  }
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// nullptr on miss; a hit refreshes recency. `count_miss` false
  /// makes a miss leave no tally, for a probe whose miss is asked
  /// again (and counted) by the full read path.
  CachedResult Get(const QueryKey& key, bool count_miss = true);
  void Put(const QueryKey& key, CachedResult result);

  /// Drops every entry of `document` with version < `current_version`
  /// (pass UINT64_MAX to drop all versions). Returns entries dropped.
  /// Wired to DocumentStore version listeners so edit commits reclaim
  /// stale entries immediately instead of waiting for LRU churn.
  size_t InvalidateBelow(const std::string& document,
                         uint64_t current_version);

  void Clear();
  CacheStats stats() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    QueryKey key;
    CachedResult result;
  };
  using EntryList = std::list<Entry>;

  mutable std::mutex mu_;
  size_t capacity_;
  EntryList lru_;  // front = most recent
  std::unordered_map<QueryKey, EntryList::iterator, QueryKeyHash> index_;
  /// Fallback home for the counters below when no registry was given.
  obs::Registry owned_registry_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* invalidated_ = nullptr;
};

}  // namespace cxml::service

#endif  // CXML_SERVICE_QUERY_CACHE_H_
