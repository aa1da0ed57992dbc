#include "service/query_cache.h"

#include <utility>

namespace cxml::service {

const char* QueryKindToString(QueryKind kind) {
  switch (kind) {
    case QueryKind::kXPath:
      return "xpath";
    case QueryKind::kXQuery:
      return "xquery";
  }
  return "?";
}

CachedResult QueryCache::Get(const QueryKey& key, bool count_miss) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    if (count_miss) misses_->Add();
    return nullptr;
  }
  hits_->Add();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->result;
}

void QueryCache::Put(const QueryKey& key, CachedResult result) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->result = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(result)});
  index_.emplace(key, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_->Add();
  }
}

size_t QueryCache::InvalidateBelow(const std::string& document,
                                   uint64_t current_version) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.document == document && it->key.version < current_version) {
      index_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped > 0) invalidated_->Add(dropped);
  return dropped;
}

void QueryCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

CacheStats QueryCache::stats() const {
  CacheStats s;
  s.hits = hits_->Value();
  s.misses = misses_->Value();
  s.evictions = evictions_->Value();
  s.invalidated = invalidated_->Value();
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.size = lru_.size();
  }
  s.capacity = capacity_;
  return s;
}

size_t QueryCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace cxml::service
