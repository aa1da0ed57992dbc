#ifndef CXML_COMMON_SPAN_H_
#define CXML_COMMON_SPAN_H_

#include <cstddef>
#include <cstdlib>
#include <vector>

namespace cxml {

/// A read-only view of `size()` contiguous `T`s owned elsewhere (C++17
/// has no std::span). It never owns or copies: it dangles once the
/// owner's storage moves, so hold it only while the owner is unchanged.
template <typename T>
class Span {
 public:
  constexpr Span() = default;
  constexpr Span(const T* data, size_t size) : data_(data), size_(size) {}
  // Implicit, so a vector passes wherever a Span is taken.
  Span(const std::vector<T>& v)  // NOLINT(runtime/explicit)
      : data_(v.data()), size_(v.size()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& operator[](size_t i) const {
#ifdef _GLIBCXX_ASSERTIONS
    // Bounds-checked like std::vector in assertion builds.
    if (i >= size_) std::abort();
#endif
    return data_[i];
  }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace cxml

#endif  // CXML_COMMON_SPAN_H_
