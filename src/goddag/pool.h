#ifndef CXML_GODDAG_POOL_H_
#define CXML_GODDAG_POOL_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/span.h"
#include "goddag/chunks.h"

namespace cxml::goddag {

/// Where one list lives in a Pool: `size` entries from `begin`, with
/// room for `capacity` before the list has to move. `begin` is the
/// chunk index shifted left by CowChunks::kShift plus the offset in the
/// chunk; 0 (chunk 0, which never holds entries) means no list.
struct PoolSpan {
  uint32_t begin = 0;
  uint32_t size = 0;
  uint32_t capacity = 0;
};

/// Many small lists (a GODDAG's child lists or its attribute lists),
/// each addressed by a PoolSpan, in copy-on-write chunks (CowChunks),
/// so copying every list of a document copies a chunk table and a write
/// copies only the chunks it lands in.
///
/// No list crosses a chunk boundary, so a list is always one contiguous
/// Span. Lists of up to a chunk fill the open chunk in turn; a list
/// longer than a chunk gets a chunk of its own. A list that outgrows its
/// capacity moves with twice the room (its old entries are dead:
/// `dead()` counts them until Repack() drops them), or grows in place
/// when it ends its chunk's entries in use and the chunk has room, or
/// when it has a chunk of its own.
template <typename T>
class Pool {
 public:
  using Chunks = CowChunks<T>;

  Pool() { chunks_.AddChunk(0); }

  Span<T> View(const PoolSpan& s) const {
    return Span<T>(chunks_.data(s.begin >> Chunks::kShift) +
                       (s.begin & Chunks::kMask),
                   s.size);
  }
  /// Entry `i` of `s` for writing (copies its chunk if shared).
  T& At(const PoolSpan& s, size_t i) {
    return chunks_.MutableData(s.begin >> Chunks::kShift)
        [(s.begin & Chunks::kMask) + i];
  }

  /// Entries held by lists or dead, spare room in chunks excluded.
  size_t size() const { return entries_; }
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
    dead_ += s->capacity;
    *s = PoolSpan();
  }

  /// Rebuilds the pool from the lists `for_each_span` visits (it calls
  /// its argument once per live PoolSpan*), packed with no spare room in
  /// visiting order. Afterwards dead() is 0.
  template <typename ForEachSpan>
  void Repack(ForEachSpan for_each_span);

  /// The chunks, for Goddag::Validate and tests.
  const Chunks& chunks() const { return chunks_; }

 private:
  /// Room for `capacity` entries in a chunk of this pool's own: returns
  /// the new list's `begin`.
  uint32_t Allocate(size_t capacity);

  Chunks chunks_;
  /// The chunk small lists are placed in (0: none yet).
  size_t open_ = 0;
  size_t entries_ = 0;
  size_t dead_ = 0;
};

template <typename T>
uint32_t Pool<T>::Allocate(size_t capacity) {
  size_t c;
  if (capacity > Chunks::kChunkSize) {
    c = chunks_.AddChunk(capacity);
  } else {
    if (open_ == 0 ||
        chunks_.used(open_) + capacity > chunks_.capacity(open_)) {
      open_ = chunks_.AddChunk(Chunks::kChunkSize);
    }
    c = open_;
  }
  const size_t offset = chunks_.used(c);
  chunks_.set_used(c, offset + capacity);
  entries_ += capacity;
  return static_cast<uint32_t>((c << Chunks::kShift) | offset);
}

template <typename T>
template <typename It>
void Pool<T>::Replace(PoolSpan* s, size_t at, size_t erase, It first,
                      size_t count) {
  if (erase == 0 && count == 0) return;
  const size_t old_size = s->size;
  const size_t new_size = old_size - erase + count;
  const size_t c = s->begin >> Chunks::kShift;
  const size_t offset = s->begin & Chunks::kMask;
  T* base;
  if (new_size > s->capacity) {
    const size_t capacity = std::max<size_t>(new_size, 2 * s->capacity);
    const size_t list_end = offset + s->capacity;
    const bool own_chunk = s->capacity > 0 && offset == 0 &&
                           s->capacity > Chunks::kChunkSize;
    const bool ends_chunk = s->capacity > 0 &&
                            list_end == chunks_.used(c) &&
                            offset + capacity <= chunks_.capacity(c);
    if (own_chunk || ends_chunk) {
      // Grow where it is: its own chunk gets larger, or it takes the
      // room after it.
      base = (own_chunk ? chunks_.Grow(c, capacity) : chunks_.MutableData(c)) +
             offset;
      chunks_.set_used(c, offset + capacity);
      entries_ += capacity - s->capacity;
      std::move_backward(base + at + erase, base + old_size, base + new_size);
    } else {
      const uint32_t begin = Allocate(capacity);
      base = chunks_.MutableData(begin >> Chunks::kShift) +
             (begin & Chunks::kMask);
      if (old_size > 0) {
        const T* from = chunks_.data(c) + offset;
        std::copy(from, from + at, base);
        std::copy(from + at + erase, from + old_size, base + at + count);
      }
      dead_ += s->capacity;
      s->begin = begin;
    }
    s->capacity = static_cast<uint32_t>(capacity);
  } else {
    base = chunks_.MutableData(c) + offset;
    if (count > erase) {
      std::move_backward(base + at + erase, base + old_size, base + new_size);
    } else if (count < erase) {
      std::move(base + at + erase, base + old_size, base + at + count);
      std::fill(base + new_size, base + old_size, T());
    }
  }
  for (size_t i = 0; i < count; ++i, ++first) base[at + i] = *first;
  s->size = static_cast<uint32_t>(new_size);
}

template <typename T>
template <typename ForEachSpan>
void Pool<T>::Repack(ForEachSpan for_each_span) {
  Pool packed;
  for_each_span([&](PoolSpan* s) {
    if (s->size == 0) {
      *s = PoolSpan();
      return;
    }
    // Copied, not moved: the old chunks may be shared with other
    // versions.
    const Span<T> from = View(*s);
    const uint32_t begin = packed.Allocate(s->size);
    T* to = packed.chunks_.MutableData(begin >> Chunks::kShift) +
            (begin & Chunks::kMask);
    std::copy(from.begin(), from.end(), to);
    *s = PoolSpan{begin, s->size, s->size};
  });
  *this = std::move(packed);
}

}  // namespace cxml::goddag

#endif  // CXML_GODDAG_POOL_H_
