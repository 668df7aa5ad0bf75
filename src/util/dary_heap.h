// Flat d-ary min-heap over a contiguous vector.
//
// Replaces node-based ordered containers on hot paths that only ever
// need push + pop-min (WFQ's head-of-line index, the event calendar's
// keys).  A 4-ary layout halves the tree depth of a binary heap and
// keeps each sift level's children in one or two cache lines; the
// element type only needs default and move construction and a
// strict-weak order.
//
// Determinism: pop() removes the exact minimum under Compare.  Callers
// that need total reproducibility (the simulator, WFQ) make Compare a
// total order over the elements they insert — e.g. (time, seq) or
// (finish, class) pairs — so the pop sequence is independent of the
// heap's internal layout history.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "util/annotations.h"

namespace bufq {

template <typename T, std::size_t Arity = 4, typename Compare = std::less<T>>
class DaryMinHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  DaryMinHeap() = default;
  explicit DaryMinHeap(Compare compare) : less_{std::move(compare)} {}

  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  void reserve(std::size_t n) { data_.reserve(n); }
  void clear() { data_.clear(); }

  /// Smallest element under Compare.  Requires a non-empty heap.
  BUFQ_HOT [[nodiscard]] const T& top() const {
    assert(!data_.empty());
    return data_.front();
  }

  // Always inlined: the calendar files through one out-of-line function,
  // whose other paths would otherwise push the heap's sift out of line.
  // The new element rides the sift in registers and is stored once, at
  // its final place, so it is never reloaded from the slot just written.
  [[gnu::always_inline]] BUFQ_HOT void push(T value) {
    std::size_t i = data_.size();
    data_.emplace_back();
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!less_(value, data_[parent])) break;
      data_[i] = std::move(data_[parent]);
      i = parent;
    }
    data_[i] = std::move(value);
  }

  /// Removes and returns the smallest element.
  BUFQ_HOT T pop() {
    assert(!data_.empty());
    T out = std::move(data_.front());
    T tail = std::move(data_.back());
    data_.pop_back();
    if (!data_.empty()) {
      data_.front() = std::move(tail);
      sift_down(0);
    }
    return out;
  }

 private:
  BUFQ_HOT void sift_down(std::size_t i) {
    const std::size_t n = data_.size();
    for (;;) {
      const std::size_t first_child = i * Arity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + Arity, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (less_(data_[c], data_[best])) best = c;
      }
      if (!less_(data_[best], data_[i])) break;
      std::swap(data_[i], data_[best]);
      i = best;
    }
  }

  std::vector<T> data_;
  [[no_unique_address]] Compare less_;
};

}  // namespace bufq
