// A FIFO queue kept in one power-of-two ring of slots.
//
// Replaces std::deque for the simulator's packet queues (a FIFO
// discipline, a propagation wire, a shaper).  A deque frees a node each
// time the head leaves one and allocates one each time the tail enters
// a new one; the ring keeps its capacity, so once a queue has reached
// its high-water length push and pop allocate nothing (DESIGN.md
// section 11).  It doubles when full, moving the entries in FIFO order
// to the front of the new slots.
//
// prefetch(i) is the hook for the queues' one cache rule: when a queue
// serves its head, it prefetches the entry its next service will read,
// which was written long before (a wire's entry a propagation delay
// earlier) and has usually left the cache since.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "util/annotations.h"

namespace bufq {

template <typename T>
class FifoRing {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "slots are raw storage: entries are copied in and never destroyed");

 public:
  /// Walks the entries from head to tail.
  class const_iterator {
   public:
    const_iterator(const FifoRing* ring, std::size_t index) : ring_{ring}, index_{index} {}
    const T& operator*() const { return (*ring_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const const_iterator& other) const = default;

   private:
    const FifoRing* ring_;
    std::size_t index_;
  };

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// The oldest entry.  Requires a non-empty ring.
  [[nodiscard]] const T& front() const {
    assert(!empty());
    return slots_[head_];
  }
  /// The entry `i` places behind the head.  Requires i < size().
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < count_);
    return slots_[(head_ + i) & mask_];
  }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, count_}; }

  BUFQ_HOT void push_back(const T& value) {
    if (count_ == capacity_) grow();
    std::construct_at(&slots_[(head_ + count_) & mask_], value);
    ++count_;
  }

  /// Removes the oldest entry.  Requires a non-empty ring.
  BUFQ_HOT void pop_front() {
    assert(!empty());
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  /// Asks the cache for the entry `i` places behind the head, if there
  /// is one: both ends of it, since an entry may straddle two lines.
  /// Always inlined: GCC finds a function whose only effect is a
  /// prefetch free of side effects and deletes calls to it unexpanded.
  [[gnu::always_inline]] BUFQ_HOT void prefetch(std::size_t i) const {
    if (i >= count_) return;
    const T* entry = &slots_[(head_ + i) & mask_];
    __builtin_prefetch(entry);
    __builtin_prefetch(reinterpret_cast<const char*>(entry) + sizeof(T) - 1);
  }

  /// Empties the ring and keeps its capacity.
  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  void grow() {
    const std::size_t capacity = std::max(kMinCapacity, 2 * capacity_);
    Slots bigger{static_cast<T*>(::operator new(capacity * sizeof(T)))};
    for (std::size_t i = 0; i < count_; ++i) {
      std::construct_at(&bigger[i], slots_[(head_ + i) & mask_]);
    }
    slots_ = std::move(bigger);
    capacity_ = capacity;
    head_ = 0;
    mask_ = capacity - 1;
  }

  struct Release {
    void operator()(T* slots) const { ::operator delete(slots); }
  };
  using Slots = std::unique_ptr<T[], Release>;
  Slots slots_;
  std::size_t capacity_{0};
  std::size_t head_{0};
  std::size_t count_{0};
  std::size_t mask_{0};  ///< capacity_ - 1 once the ring has slots
};

}  // namespace bufq
