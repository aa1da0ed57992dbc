#ifndef CXML_GODDAG_CHUNKS_H_
#define CXML_GODDAG_CHUNKS_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace cxml::goddag {

/// A stamp no container has held before, from any thread. Each thread
/// takes a block of stamps from one counter, so taking one is usually a
/// thread-local increment. 0 is never handed out.
inline uint64_t NewOwnerStamp() {
  constexpr uint64_t kBlock = uint64_t{1} << 16;
  static std::atomic<uint64_t> next_block{1};
  thread_local uint64_t next = 0;
  thread_local uint64_t end = 0;
  if (next == end) {
    next = next_block.fetch_add(1, std::memory_order_relaxed) * kBlock;
    end = next + kBlock;
  }
  return next++;
}

/// Copy-on-write chunk storage, the one container behind a GODDAG's
/// node arrays and list pools: a table of chunks behind shared
/// pointers, so a copy of the container copies the table and shares
/// every chunk, and a chunk is copied the first time a copy writes to
/// it.
///
/// Whether a chunk may be written in place is decided from owner
/// stamps, never from the shared pointer's use count: a table entry
/// records the stamp of the container that made the chunk, and a write
/// goes in place only when that is this container's current stamp. A
/// copy gives new stamps to both itself and its source, so after a copy
/// neither side owns a shared chunk. That keeps a writer off a chunk a
/// concurrent reader of another version may still hold: a use count of
/// one, read with a relaxed load, would carry no happens-before edge to
/// that reader's release. The source's stamp is an atomic so several
/// threads may copy one immutable (published) container at once.
///
/// Chunks hold `kChunkSize` entries unless made larger on purpose (the
/// list pools give a list longer than a chunk a chunk of its own). Each
/// chunk records how many of its entries are in use.
template <typename T>
class CowChunks {
 public:
  static constexpr size_t kShift = 9;
  static constexpr size_t kChunkSize = size_t{1} << kShift;
  static constexpr size_t kMask = kChunkSize - 1;

  CowChunks() = default;
  /// Shares every chunk of `other`; both sides get new stamps.
  CowChunks(const CowChunks& other)
      : slots_(other.slots_), data_(other.data_), copies_(0) {
    other.stamp_.store(NewOwnerStamp(), std::memory_order_relaxed);
  }
  CowChunks(CowChunks&& other) noexcept
      : slots_(std::move(other.slots_)),
        data_(std::move(other.data_)),
        stamp_(other.stamp_.load(std::memory_order_relaxed)),
        copies_(other.copies_) {
    other.slots_.clear();
    other.data_.clear();
    other.stamp_.store(NewOwnerStamp(), std::memory_order_relaxed);
  }
  CowChunks& operator=(CowChunks&& other) noexcept {
    slots_ = std::move(other.slots_);
    data_ = std::move(other.data_);
    stamp_.store(other.stamp_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    copies_ = other.copies_;
    other.slots_.clear();
    other.data_.clear();
    other.stamp_.store(NewOwnerStamp(), std::memory_order_relaxed);
    return *this;
  }
  CowChunks& operator=(const CowChunks&) = delete;

  size_t num_chunks() const { return slots_.size(); }
  const T* data(size_t c) const { return data_[c]; }
  /// Entries chunk `c` has room for, and how many of them are in use.
  size_t capacity(size_t c) const { return slots_[c].capacity; }
  size_t used(size_t c) const { return slots_[c].used; }
  void set_used(size_t c, size_t n) {
    slots_[c].used = static_cast<uint32_t>(n);
  }

  /// Chunk `c` for writing: copied first unless this container made it
  /// since it was last copied.
  T* MutableData(size_t c) {
    Slot& slot = slots_[c];
    const uint64_t stamp = stamp_.load(std::memory_order_relaxed);
    if (slot.owner != stamp) {
      slot.items = Allocate(slot.capacity, slot.items.get(), slot.used);
      slot.owner = stamp;
      data_[c] = slot.items.get();
      ++copies_;
    }
    return slot.items.get();
  }

  /// Appends an empty chunk with room for `capacity` entries, owned by
  /// this container. Returns its index.
  size_t AddChunk(size_t capacity) {
    Slot slot;
    slot.items = Allocate(capacity, nullptr, 0);
    slot.capacity = static_cast<uint32_t>(capacity);
    slot.owner = stamp_.load(std::memory_order_relaxed);
    data_.push_back(slot.items.get());
    slots_.push_back(std::move(slot));
    return slots_.size() - 1;
  }

  /// Gives chunk `c` room for `capacity` (>= its capacity) entries, its
  /// entries in use kept; the chunk is this container's afterwards.
  T* Grow(size_t c, size_t capacity) {
    Slot& slot = slots_[c];
    slot.items = Allocate(capacity, slot.items.get(), slot.used);
    slot.capacity = static_cast<uint32_t>(capacity);
    slot.owner = stamp_.load(std::memory_order_relaxed);
    data_[c] = slot.items.get();
    return slot.items.get();
  }

  void PopChunk() {
    slots_.pop_back();
    data_.pop_back();
  }

  /// Whether chunk `c` is the very chunk `other` holds at `c` (tests).
  bool SharesChunk(const CowChunks& other, size_t c) const {
    return c < other.slots_.size() &&
           slots_[c].items == other.slots_[c].items;
  }
  /// Chunks this container copied before writing them (tests).
  size_t chunk_copies() const { return copies_; }

 private:
  struct Slot {
    std::shared_ptr<T[]> items;
    uint32_t capacity = 0;
    uint32_t used = 0;
    uint64_t owner = 0;
  };

  /// Room for `capacity` entries: the first `n` copied from `from`, the
  /// rest value-initialised.
  static std::shared_ptr<T[]> Allocate(size_t capacity, const T* from,
                                       size_t n) {
    if (capacity == 0) return nullptr;
    T* items = static_cast<T*>(::operator new(capacity * sizeof(T)));
    std::uninitialized_copy_n(from, n, items);
    std::uninitialized_value_construct_n(items + n, capacity - n);
    return std::shared_ptr<T[]>(items, [capacity](T* p) {
      std::destroy_n(p, capacity);
      ::operator delete(p);
    });
  }

  std::vector<Slot> slots_;
  /// slots_[c].items.get(), packed for the read path.
  std::vector<const T*> data_;
  mutable std::atomic<uint64_t> stamp_{NewOwnerStamp()};
  size_t copies_ = 0;
};

/// A growable array on CowChunks: entry `i` lives in chunk `i >>
/// kShift`, so a read is one table lookup more than a flat array, a
/// write copies at most the one chunk it lands in, and an append
/// touches only the tail chunk. Whole-array scans should walk it chunk
/// by chunk (ForEachChunk) rather than entry by entry.
template <typename T>
class ChunkedArray {
 public:
  using Chunks = CowChunks<T>;
  static constexpr size_t kShift = Chunks::kShift;
  static constexpr size_t kChunkSize = Chunks::kChunkSize;
  static constexpr size_t kMask = Chunks::kMask;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const {
#ifdef _GLIBCXX_ASSERTIONS
    if (i >= size_) std::abort();
#endif
    return chunks_.data(i >> kShift)[i & kMask];
  }
  /// Entry `i` for writing (copies its chunk on this copy's first write).
  T& Mutable(size_t i) {
#ifdef _GLIBCXX_ASSERTIONS
    if (i >= size_) std::abort();
#endif
    return chunks_.MutableData(i >> kShift)[i & kMask];
  }

  void push_back(const T& value) {
    const size_t c = size_ >> kShift;
    if (c == chunks_.num_chunks()) chunks_.AddChunk(kChunkSize);
    chunks_.MutableData(c)[size_ & kMask] = value;
    chunks_.set_used(c, (size_ & kMask) + 1);
    ++size_;
  }

  /// Grows to `n` entries, the new ones `value`, or shrinks to `n`.
  void resize(size_t n, const T& value) {
    if (n < size_) {
      while (chunks_.num_chunks() > (n + kMask) >> kShift) {
        chunks_.PopChunk();
      }
      size_ = n;
      if ((n & kMask) != 0) chunks_.set_used(n >> kShift, n & kMask);
      return;
    }
    while (size_ < n) {
      const size_t c = size_ >> kShift;
      if (c == chunks_.num_chunks()) chunks_.AddChunk(kChunkSize);
      const size_t from = size_ & kMask;
      const size_t to = std::min(kChunkSize, from + (n - size_));
      T* data = chunks_.MutableData(c);
      std::fill(data + from, data + to, value);
      chunks_.set_used(c, to);
      size_ += to - from;
    }
  }

  /// Inserts `value` before entry `at`, moving the later entries up by
  /// one (their chunks are written).
  void Insert(size_t at, const T& value) {
    push_back(value);
    T carry = value;
    for (size_t c = at >> kShift; c <= (size_ - 1) >> kShift; ++c) {
      const size_t first = c == (at >> kShift) ? (at & kMask) : 0;
      const size_t end =
          std::min(kChunkSize, size_ - (c << kShift));  // in use after
      T* data = chunks_.MutableData(c);
      T last = data[end - 1];
      std::move_backward(data + first, data + end - 1, data + end);
      data[first] = carry;
      carry = last;
    }
  }

  /// Removes entries `[first, last)`, moving the later entries down.
  void Erase(size_t first, size_t last) {
    if (first >= last) return;
    const size_t gap = last - first;
    for (size_t i = first; i + gap < size_;) {
      // Copy a run that stays within one source and one target chunk.
      const size_t src = i + gap;
      const size_t run = std::min({size_ - src, kChunkSize - (i & kMask),
                                   kChunkSize - (src & kMask)});
      // Target first: copying its chunk may drop the source's old copy.
      T* to = chunks_.MutableData(i >> kShift) + (i & kMask);
      const T* from = chunks_.data(src >> kShift) + (src & kMask);
      std::copy(from, from + run, to);
      i += run;
    }
    resize(size_ - gap, T());
  }

  /// Calls `fn(first, data, n)` for each chunk: entries `[first, first +
  /// n)` are `data[0, n)`.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    for (size_t c = 0, first = 0; first < size_; ++c, first += kChunkSize) {
      fn(first, chunks_.data(c), std::min(kChunkSize, size_ - first));
    }
  }
  /// ForEachChunk with writable chunks (each copied once if shared).
  template <typename Fn>
  void ForEachChunkMutable(Fn&& fn) {
    for (size_t c = 0, first = 0; first < size_; ++c, first += kChunkSize) {
      fn(first, chunks_.MutableData(c), std::min(kChunkSize, size_ - first));
    }
  }

  const Chunks& chunks() const { return chunks_; }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const ChunkedArray* array, size_t i)
        : array_(array), i_(i) {}
    reference operator*() const { return (*array_)[i_]; }
    pointer operator->() const { return &(*array_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator was = *this;
      ++i_;
      return was;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const ChunkedArray* array_ = nullptr;
    size_t i_ = 0;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  Chunks chunks_;
  size_t size_ = 0;
};

}  // namespace cxml::goddag

#endif  // CXML_GODDAG_CHUNKS_H_
