// The simulator's event calendar: a keyed 4-ary min-heap.
//
// pop_min() returns the pending event with the smallest (time, seq), so
// the pop order is a total order fixed by the event sequence alone and
// runs are bit-identical however the events were filed.
//
// The heap orders 24-byte keys (time, seq, slot); each event's action
// (an InlineAction, most of the event record) sits still in a slab at
// `slot`, so a sift moves keys and never actions.  Freed slots go on a
// LIFO free list and are reused before the slab grows.  Heap, slab and
// free list keep their capacity, so once the calendar has reached its
// high-water depth push and pop allocate nothing.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "check/invariants.h"
#include "sim/inline_action.h"
#include "util/annotations.h"
#include "util/dary_heap.h"
#include "util/units.h"

namespace bufq {

class CalendarQueue {
 public:
  struct Event {
    Time time;
    std::uint64_t seq;
    InlineAction action;
#if BUFQ_CHECKS_ENABLED
    /// Checks builds only: the clock when the event was filed, kept in a
    /// slab beside the action (see Simulator::dispatching).
    Time scheduled_at{Time::zero()};
#endif
  };

  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  /// Files an event.  Any time is accepted; the simulator itself never
  /// files one before the last popped event's time.
  BUFQ_HOT void push(Event event) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(actions_.size());
      BUFQ_LINT_SUPPRESS("hot-path-container-growth", "the slab keeps its capacity; steady state reuses freed slots");
      actions_.push_back(std::move(event.action));
#if BUFQ_CHECKS_ENABLED
      BUFQ_LINT_SUPPRESS("hot-path-container-growth", "grows in step with the slab above");
      scheduled_.push_back(event.scheduled_at);
#endif
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      actions_[slot] = std::move(event.action);
#if BUFQ_CHECKS_ENABLED
      scheduled_[slot] = event.scheduled_at;
#endif
    }
    keys_.push(Key{event.time, event.seq, slot});
  }

  /// Timestamp of the pending event with the smallest (time, seq).
  /// Requires a non-empty calendar.
  [[nodiscard]] Time min_time() const { return keys_.top().time; }

  /// Pops the pending event with the smallest (time, seq) into `out`
  /// when its time is <= `limit`; otherwise returns false and leaves the
  /// calendar untouched.
  BUFQ_HOT bool pop_min_at_or_before(Time limit, Event& out) {
    if (keys_.empty() || keys_.top().time > limit) return false;
    const Key key = keys_.pop();
    out.time = key.time;
    out.seq = key.seq;
    out.action = std::move(actions_[key.slot]);
#if BUFQ_CHECKS_ENABLED
    out.scheduled_at = scheduled_[key.slot];
#endif
    BUFQ_LINT_SUPPRESS("hot-path-container-growth", "the free list keeps its capacity; it never outgrows the slab");
    free_slots_.push_back(key.slot);
    return true;
  }

  /// Removes and returns the pending event with the smallest
  /// (time, seq).  Requires a non-empty calendar.
  BUFQ_HOT Event pop_min() {
    assert(!empty());
    Event out;
    pop_min_at_or_before(Time::max(), out);
    return out;
  }

  /// A heap has no bucket geometry: these constants exist only because
  /// perfbench's calendar probe reads them.
  [[nodiscard]] int width_shift() const { return 0; }
  [[nodiscard]] std::size_t bucket_count() const { return 1; }

 private:
  struct Key {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;  ///< Index of the event's action in actions_.
  };
  struct EarlierKey {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };

  DaryMinHeap<Key, 4, EarlierKey> keys_;
  std::vector<InlineAction> actions_;
#if BUFQ_CHECKS_ENABLED
  std::vector<Time> scheduled_;
#endif
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace bufq
