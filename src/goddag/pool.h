#ifndef CXML_GODDAG_POOL_H_
#define CXML_GODDAG_POOL_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/span.h"

namespace cxml::goddag {

/// Where one list lives in a Pool: `size` entries from `begin`, with
/// room for `capacity` before the list has to move.
struct PoolSpan {
  uint32_t begin = 0;
  uint32_t size = 0;
  uint32_t capacity = 0;
};

/// One flat vector holding many small lists (a GODDAG's child lists or
/// its attribute lists), each addressed by a PoolSpan, so copying every
/// list of a document is one bulk copy.
///
/// A list that outgrows its capacity moves to the end of the pool with
/// twice the room, or grows in place when it already ends the pool. The
/// entries it leaves behind are dead: `dead()` counts them until
/// Repack() drops them.
template <typename T>
class Pool {
 public:
  Span<T> View(const PoolSpan& s) const {
    return Span<T>(items_.data() + s.begin, s.size);
  }
  T& At(const PoolSpan& s, size_t i) { return items_[s.begin + i]; }

  /// Entries held, dead ones and spare capacity included.
  size_t size() const { return items_.size(); }
  /// Entries no list owns any more.
  size_t dead() const { return dead_; }

  /// Replaces the `erase` entries of `*s` at `at` with `count` entries
  /// read from `first`, which must not point into this pool.
  template <typename It>
  void Replace(PoolSpan* s, size_t at, size_t erase, It first, size_t count);

  void Insert(PoolSpan* s, size_t at, T value) {
    Replace(s, at, 0, std::make_move_iterator(&value), 1);
  }
  void Append(PoolSpan* s, T value) { Insert(s, s->size, std::move(value)); }
  void Erase(PoolSpan* s, size_t at, size_t count = 1) {
    Replace(s, at, count, static_cast<const T*>(nullptr), 0);
  }

  /// Drops the list; its entries become dead.
  void Release(PoolSpan* s) {
    std::fill(items_.begin() + s->begin,
              items_.begin() + s->begin + s->capacity, T());
    dead_ += s->capacity;
    *s = PoolSpan();
  }

  /// Rebuilds the pool from the lists `for_each_span` visits (it calls
  /// its argument once per live PoolSpan*), packed with no spare room in
  /// visiting order. Afterwards dead() is 0.
  template <typename ForEachSpan>
  void Repack(ForEachSpan for_each_span);

 private:
  std::vector<T> items_;
  size_t dead_ = 0;
};

template <typename T>
template <typename It>
void Pool<T>::Replace(PoolSpan* s, size_t at, size_t erase, It first,
                      size_t count) {
  const size_t old_size = s->size;
  const size_t new_size = old_size - erase + count;
  if (new_size > s->capacity) {
    const size_t capacity = std::max<size_t>(new_size, 2 * s->capacity);
    if (s->capacity > 0 && s->begin + s->capacity == items_.size()) {
      // The list ends the pool: grow it where it is.
      items_.resize(s->begin + capacity);
      auto base = items_.begin() + s->begin;
      std::move_backward(base + at + erase, base + old_size,
                         base + new_size);
    } else {
      const size_t begin = items_.size();
      items_.resize(begin + capacity);
      auto from = items_.begin() + s->begin;
      auto to = items_.begin() + begin;
      std::move(from, from + at, to);
      std::move(from + at + erase, from + old_size, to + at + count);
      std::fill(from, from + s->capacity, T());
      dead_ += s->capacity;
      s->begin = static_cast<uint32_t>(begin);
    }
    s->capacity = static_cast<uint32_t>(capacity);
  } else if (count > erase) {
    auto base = items_.begin() + s->begin;
    std::move_backward(base + at + erase, base + old_size, base + new_size);
  } else if (count < erase) {
    auto base = items_.begin() + s->begin;
    std::move(base + at + erase, base + old_size, base + at + count);
    std::fill(base + new_size, base + old_size, T());
  }
  for (size_t i = 0; i < count; ++i, ++first) {
    items_[s->begin + at + i] = *first;
  }
  s->size = static_cast<uint32_t>(new_size);
}

template <typename T>
template <typename ForEachSpan>
void Pool<T>::Repack(ForEachSpan for_each_span) {
  std::vector<T> packed;
  packed.reserve(items_.size() - dead_);
  for_each_span([&](PoolSpan* s) {
    const uint32_t begin = static_cast<uint32_t>(packed.size());
    for (size_t i = 0; i < s->size; ++i) {
      packed.push_back(std::move(items_[s->begin + i]));
    }
    *s = s->size == 0 ? PoolSpan() : PoolSpan{begin, s->size, s->size};
  });
  items_ = std::move(packed);
  dead_ = 0;
}

}  // namespace cxml::goddag

#endif  // CXML_GODDAG_POOL_H_
