#ifndef CXML_COMMON_LRU_CACHE_H_
#define CXML_COMMON_LRU_CACHE_H_

#include <list>
#include <map>
#include <string>
#include <string_view>
#include <utility>

namespace cxml {

/// Bounded string-keyed LRU (front = most recent) behind the service's
/// prepared-handle cache. Values live in stable list nodes; the index's
/// string_view keys point at those nodes' own key strings, so lookups
/// never copy the key. Not thread-safe — callers own any locking.
template <typename V>
class StringLruCache {
 public:
  explicit StringLruCache(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Returns the cached value, promoting it to most-recent; nullptr on
  /// miss. The pointer is owned by the cache and stays valid until
  /// `capacity()` newer distinct keys evict the entry — use it before
  /// the next Put, never across them.
  const V* Get(std::string_view key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &lru_.front().second;
  }

  /// Inserts (or overwrites) as most-recent and returns the stored
  /// value's address (same lifetime contract as Get), evicting the
  /// least-recent entry when over capacity.
  const V* Put(std::string_view key, V value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      lru_.front().second = std::move(value);
      return &lru_.front().second;
    }
    lru_.emplace_front(std::string(key), std::move(value));
    index_.emplace(std::string_view(lru_.front().first), lru_.begin());
    if (lru_.size() > capacity_) {
      // capacity_ >= 1, so the evictee is never the entry just added.
      index_.erase(std::string_view(lru_.back().first));
      lru_.pop_back();
    }
    return &lru_.front().second;
  }

  size_t size() const { return lru_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  using Entry = std::pair<std::string, V>;
  std::list<Entry> lru_;
  std::map<std::string_view, typename std::list<Entry>::iterator> index_;
  size_t capacity_;
};

}  // namespace cxml

#endif  // CXML_COMMON_LRU_CACHE_H_
