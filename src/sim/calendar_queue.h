// The simulator's event calendar: a keyed 4-ary min-heap beside a few
// constant-delay FIFO lanes.
//
// pop_min() returns the pending event with the smallest (time, seq), so
// the pop order is a total order fixed by the event sequence alone and
// runs are bit-identical however the events were filed.
//
// Every pending event is a 24-byte key (time, seq, slot); its action (an
// InlineAction, most of the event record) sits still in a slab at `slot`,
// so neither the heap nor a lane ever moves an action.  Freed slots go on
// a LIFO free list and are reused before the slab grows.
//
// Lanes.  Most events are filed a fixed delay after the event being
// dispatched (a transmission time, a source's packet gap, a shaper's
// release), so successive filings at one delay arrive in (time, seq)
// order.  A lane holds the keys filed at one exact delay — key time minus
// the clock, i.e. the time of the last popped event unless the simulator
// advanced it without a pop — as a ring, strictly increasing from head to
// tail; a pop takes the smallest of the heap top and the lane heads.  A
// key joins its delay's lane only when it is larger than the lane's tail
// (a re-arm under an older reserved seq at the tail's time is not, and
// goes to the heap), so the lane invariant holds whatever the caller
// files.  A delay claims an empty lane only when it repeats the delay of
// the previous heap-bound filing, so one-off delays never pin a lane.
// None of this changes which key pops next: it only spares most keys a
// trip through the heap (DESIGN.md section 11).
//
// Heap, lanes, slab and free list keep their capacity, so once the
// calendar has reached its high-water depth push and pop allocate
// nothing.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
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

  /// Constant-delay lanes beside the heap.  Counted over perfbench's
  /// seed-1 rounds, 1/2/4/8 lanes take 96.7/96.8/99.4/99.6% of
  /// leaf_spine's filings, 63.2/67.4/97.0/97.0% of churn's (three hot
  /// delays plus one-offs) and 24.7/45.7/99.3/99.3% of paper_sweep's;
  /// four is where all three flatten.
  static constexpr std::size_t kLanes = 4;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Pending events, heap and lanes together.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Pending events on the heap rather than in a lane.  For tests, which
  /// check that the lanes take the filings they should: the pop order
  /// and size() are the same either way.
  [[nodiscard]] std::size_t heap_size() const { return keys_.size(); }

  /// Files an event.  Any time is accepted; the simulator itself never
  /// files one before its clock.
  BUFQ_HOT void push(Event event) {
#if BUFQ_CHECKS_ENABLED
    schedule(event.time, event.seq, event.scheduled_at, std::move(event.action));
#else
    schedule(event.time, event.seq, Time::zero(), std::move(event.action));
#endif
  }

  /// Files an event whose action is built straight into its slab slot
  /// from `action` (any callable InlineAction accepts, or an
  /// InlineAction).  `scheduled_at` is kept in checks builds only.
  template <typename F>
  BUFQ_HOT void schedule(Time time, std::uint64_t seq, [[maybe_unused]] Time scheduled_at,
                        F&& action) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(actions_.size());
      BUFQ_LINT_SUPPRESS("hot-path-container-growth", "the slab keeps its capacity; steady state reuses freed slots");
      actions_.emplace_back(std::forward<F>(action));
#if BUFQ_CHECKS_ENABLED
      BUFQ_LINT_SUPPRESS("hot-path-container-growth", "grows in step with the slab above");
      scheduled_.push_back(scheduled_at);
#endif
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      actions_[slot].assign(std::forward<F>(action));
#if BUFQ_CHECKS_ENABLED
      scheduled_[slot] = scheduled_at;
#endif
    }
    file_key(time, seq, slot);
  }

  /// Timestamp of the pending event with the smallest (time, seq).
  /// Requires a non-empty calendar.
  [[nodiscard]] Time min_time() const {
    assert(!empty());
    return min_key().key->time;
  }

  /// Pops the pending event with the smallest (time, seq) into `out`
  /// when its time is <= `limit`; otherwise returns false and leaves the
  /// calendar untouched.
  BUFQ_HOT bool pop_min_at_or_before(Time limit, Event& out) {
    if (empty()) return false;
    const Source min = min_key();
    if (min.key->time > limit) return false;
    const Key key = min.lane == kHeap ? keys_.pop() : take_from(min.lane);
    --size_;
    clock_ = key.time;
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

  /// Moves the origin of lane delays to `now`, for a clock that advanced
  /// with no pop (a run_until horizon, a boundary event), so filings made
  /// from there still meet their lanes.  Changes no pop.
  void advance_clock(Time now) { clock_ = now; }

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
    bool operator()(const Key& a, const Key& b) const { return earlier(a, b.time, b.seq); }
    /// Whether `a` pops before a key at (time, seq).
    static bool earlier(const Key& a, Time time, std::uint64_t seq) {
      if (a.time != time) return a.time < time;
      return a.seq < seq;
    }
  };

  /// Delays are unsigned nanosecond differences, so a time before the
  /// clock (never filed by the simulator) wraps instead of overflowing;
  /// a wrapped delay can only cost a lane hit, never misorder a pop.
  static constexpr std::uint64_t kUnclaimed = ~std::uint64_t{0};
  [[nodiscard]] std::uint64_t delay_of(Time time) const {
    return static_cast<std::uint64_t>(time.ns()) - static_cast<std::uint64_t>(clock_.ns());
  }

  /// A FIFO ring of keys, strictly increasing from head to tail.  Its
  /// capacity is a power of two and is kept when it empties.
  struct Lane {
    std::uint32_t head{0};
    std::uint32_t count{0};
    std::vector<Key> ring;

    [[nodiscard]] std::size_t mask() const { return ring.size() - 1; }
    [[nodiscard]] const Key& front() const { return ring[head]; }
    [[nodiscard]] const Key& back() const { return ring[(head + count - 1) & mask()]; }
    /// Writes the key field by field into its slot: a key built on the
    /// stack and copied whole would be reloaded wide before its scalar
    /// stores retire, which stalls store forwarding.
    BUFQ_HOT void put(Time time, std::uint64_t seq, std::uint32_t slot) {
      if (count == ring.size()) {
        // Doubling keeps the keys at [head, old size) in place and moves
        // the wrapped ones, [0, head), to just past the old end.
        const std::size_t old_size = ring.size();
        BUFQ_LINT_SUPPRESS("hot-path-container-growth", "lane rings keep their capacity, as the slab does; steady state reuses it");
        ring.resize(std::max<std::size_t>(old_size * 2, 16));
        std::copy(ring.begin(), ring.begin() + head, ring.begin() + static_cast<std::ptrdiff_t>(old_size));
      }
      Key& key = ring[(head + count) & mask()];
      key.time = time;
      key.seq = seq;
      key.slot = slot;
      ++count;
    }
    BUFQ_HOT Key take() {
      const Key key = ring[head];
      head = static_cast<std::uint32_t>((head + 1) & mask());
      --count;
      return key;
    }
  };

  /// Where the smallest pending key lives: lane `lane`, or the heap top
  /// when `lane` is kHeap.
  static constexpr std::size_t kHeap = kLanes;
  struct Source {
    const Key* key;
    std::size_t lane;
  };

  /// Requires a non-empty calendar.
  BUFQ_HOT Source min_key() const {
    Source best{keys_.empty() ? nullptr : &keys_.top(), kHeap};
    for (std::uint32_t bits = occupied_; bits != 0; bits &= bits - 1) {
      const auto i = static_cast<std::size_t>(std::countr_zero(bits));
      const Key& head = lanes_[i].front();
      if (best.key == nullptr || EarlierKey{}(head, *best.key)) best = Source{&head, i};
    }
    return best;
  }

  BUFQ_HOT Key take_from(std::size_t lane) {
    const Key key = lanes_[lane].take();
    if (lanes_[lane].count == 0) occupied_ &= ~(1u << lane);
    return key;
  }

  BUFQ_HOT void put_on(std::size_t lane, Time time, std::uint64_t seq, std::uint32_t slot) {
    lanes_[lane].put(time, seq, slot);
    occupied_ |= 1u << lane;
  }

  /// Puts the key (time, seq, slot) on its delay's lane when that keeps
  /// the lane increasing, on an empty lane when its delay repeats the
  /// previous heap-bound filing's, and on the heap otherwise.  The key
  /// travels as scalars until it is written where it stays.
  BUFQ_HOT void file_key(Time time, std::uint64_t seq, std::uint32_t slot) {
    ++size_;
    const std::uint64_t delay = delay_of(time);
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (lane_delay_[i] != delay) continue;
      if (lanes_[i].count == 0 || EarlierKey::earlier(lanes_[i].back(), time, seq)) {
        put_on(i, time, seq, slot);
      } else {
        to_heap(delay, time, seq, slot);  // behind its own lane's tail: the heap orders it
      }
      return;
    }
    const std::uint32_t empty = ~occupied_ & kAllLanes;
    if (delay == last_heap_delay_ && empty != 0) {
      const auto i = static_cast<std::size_t>(std::countr_zero(empty));
      lane_delay_[i] = delay;
      put_on(i, time, seq, slot);
      return;
    }
    to_heap(delay, time, seq, slot);
  }

  BUFQ_HOT void to_heap(std::uint64_t delay, Time time, std::uint64_t seq, std::uint32_t slot) {
    last_heap_delay_ = delay;
    keys_.push(Key{time, seq, slot});
  }

  DaryMinHeap<Key, 4, EarlierKey> keys_;
  static_assert(kLanes <= 32, "occupied_ has one bit per lane");
  static constexpr std::uint32_t kAllLanes = (1u << kLanes) - 1;
  /// Each lane's delay, kUnclaimed until a delay claims it; a lane keeps
  /// its delay when it empties, until another delay claims it.
  std::array<std::uint64_t, kLanes> lane_delay_ = [] {
    std::array<std::uint64_t, kLanes> unclaimed{};
    unclaimed.fill(kUnclaimed);
    return unclaimed;
  }();
  std::array<Lane, kLanes> lanes_{};
  /// Bit i is set while lane i holds keys.
  std::uint32_t occupied_{0};
  std::size_t size_{0};
  /// The origin every delay is taken from: the last popped event's time,
  /// or later if the simulator moved its clock with no pop.
  Time clock_{Time::zero()};
  /// Delay of the last filing that went to the heap.
  std::uint64_t last_heap_delay_{kUnclaimed};
  std::vector<InlineAction> actions_;
#if BUFQ_CHECKS_ENABLED
  std::vector<Time> scheduled_;
#endif
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace bufq
