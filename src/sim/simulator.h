// Discrete-event simulation kernel.
//
// A `Simulator` owns an event calendar of (time, sequence, action)
// triples.  The sequence number makes ties deterministic — events
// scheduled earlier fire earlier at equal timestamps — which, together
// with the integer time base and the deterministic Rng, makes every run
// exactly reproducible from its seed.
//
// The hot path is allocation-free: actions are InlineActions (captures
// up to 48 bytes live inside the event record, see inline_action.h) and
// the calendar is a keyed 4-ary heap beside constant-delay FIFO lanes
// (calendar_queue.h) that pops the exact (time, seq) minimum and reuses
// its storage, so the steady-state event loop performs zero heap
// allocations.  Schedule and dispatch are defined inline below — each
// runs once per simulated event, and inlining them with the calendar's
// push and pop removes a cross-TU call per hop.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "check/invariants.h"
#include "obs/metrics.h"
#include "sim/calendar_queue.h"
#include "sim/inline_action.h"
#include "util/annotations.h"
#include "util/units.h"

namespace bufq {

class CheckpointReader;
class CheckpointWriter;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.  Starts at zero.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `action` at absolute time `t`.  Requires t >= now().
  /// Returns the assigned sequence number: components that hold pending
  /// events record it alongside the fire time so checkpoint restore can
  /// re-arm with the exact (time, seq) key and preserve tie order.
  /// `action` is any callable an InlineAction accepts (or an
  /// InlineAction); it is built straight into the calendar's slab, with
  /// no temporaries.
  template <typename F>
  BUFQ_HOT std::uint64_t at(Time t, F&& action) {
    const std::uint64_t seq = reserve(t);
    calendar_.schedule(t, seq, now_, std::forward<F>(action));
    return seq;
  }

  /// Schedules `action` `delay` after the current time.  Requires a
  /// non-negative delay.  Returns the assigned sequence number (see at()).
  template <typename F>
  BUFQ_HOT std::uint64_t in(Time delay, F&& action) {
    assert(delay >= Time::zero());
    return at(now_ + delay, std::forward<F>(action));
  }

  /// Hands out the next sequence number without filing an event, after
  /// the schedule-time check on `t` (at() reserves through it too).  The
  /// caller files the event later with rearm(t, seq, ...), in the
  /// tie-break place the seq gives it.  Requires t >= now().
  BUFQ_HOT std::uint64_t reserve([[maybe_unused]] Time t) {
    BUFQ_CHECK(t >= now_, check::Invariant::kEventClock, -1, now_, t.to_seconds(),
               now_.to_seconds(), "event scheduled in the past");
#if !BUFQ_CHECKS_ENABLED
    assert(t >= now_ && "cannot schedule in the past");
#endif
    return next_seq_++;
  }

  /// Files an event under a sequence number handed out earlier by
  /// at()/in()/reserve(): a seq reserved ahead of time (a propagation
  /// wire files only its head), or a checkpointed event's original seq on
  /// restore.  Either way the tie-break order is the one the seq was issued
  /// in.  Plain asserts rather than BUFQ_CHECK: reserve() already ran the
  /// schedule-time check, and on restore the checker tallies are
  /// overwritten by the engine after re-arming and must not be perturbed.
  /// When the seq was handed out is not known here, so in checks builds a
  /// re-armed event counts as filed before anything (see dispatching()).
  template <typename F>
  BUFQ_HOT void rearm(Time t, std::uint64_t seq, F&& action) {
    assert(t >= now_ && "cannot re-arm in the past");
    assert(seq < next_seq_ && "re-armed seq was never issued");
#if BUFQ_CHECKS_ENABLED
    calendar_.schedule(t, seq, kFiledBeforeAnything, std::forward<F>(action));
#else
    calendar_.schedule(t, seq, Time::zero(), std::forward<F>(action));
#endif
  }

  /// Executes the single earliest pending event.  Returns false when the
  /// calendar is empty or the simulator was stopped.
  BUFQ_HOT bool step() {
    if (stopped_ || calendar_.empty()) return false;
    CalendarQueue::Event ev = calendar_.pop_min();
    dispatch(ev);
    return true;
  }

  /// Runs until the calendar is empty or `stop()` is called.
  void run();

  /// Processes every event with timestamp <= `t`, then advances the clock
  /// to exactly `t` (so follow-up measurements see a consistent horizon).
  BUFQ_HOT void run_until(Time t) {
    assert(t >= now_);
    CalendarQueue::Event ev;
    while (!stopped_ && calendar_.pop_min_at_or_before(t, ev)) {
      dispatch(ev);
    }
    if (!stopped_) {
      now_ = t;
      calendar_.advance_clock(t);
    }
    stopped_ = false;
  }

  /// Processes events in order until `target` total events have been
  /// dispatched (lifetime count, compared against events_processed()) or
  /// no event at or before `limit` remains.  Unlike run_until() the clock
  /// is NOT advanced to `limit` afterwards — the simulator is left exactly
  /// as it was after the last dispatched event, which is what a
  /// mid-run checkpoint needs (resuming with run_until(horizon) then
  /// replays the identical remaining trajectory).  Returns
  /// events_processed().
  std::uint64_t run_events_until(std::uint64_t target, Time limit) {
    CalendarQueue::Event ev;
    while (!stopped_ && processed_ < target && calendar_.pop_min_at_or_before(limit, ev)) {
      dispatch(ev);
    }
    return processed_;
  }

  /// Dispatches an event that was never on this simulator's calendar — a
  /// boundary event handed over from another shard by the parallel engine
  /// (src/sim/parallel.h).  Semantically identical to dispatch(): the
  /// clock advances to `t`, the event is counted in events_processed()
  /// and `sim.events`, then `fn` runs.  That exact mirroring is what
  /// keeps a sharded run's merged event count (and checker tally, via the
  /// same kEventClock check) bit-identical to the serial run, where the
  /// crossing was an ordinary wire-arrival event.  Requires t >= now().
  template <typename Fn>
  BUFQ_HOT void dispatch_external(Time t, Fn&& fn) {
    BUFQ_CHECK(t >= now_, check::Invariant::kEventClock, -1, now_, t.to_seconds(),
               now_.to_seconds(), "boundary event behind the shard clock");
    now_ = t;
    calendar_.advance_clock(t);
    ++processed_;
    events_metric_.add();
    if ((processed_ & 63u) == 0) {
      depth_metric_.record(static_cast<std::int64_t>(calendar_.size()));
    }
    std::forward<Fn>(fn)();
  }

  /// Makes `run()`/`run_until()` return after the current event.  Pending
  /// events stay scheduled; a later run() resumes.
  void stop() { stopped_ = true; }

  [[nodiscard]] bool stopped() const { return stopped_; }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] std::size_t events_pending() const { return calendar_.size(); }

#if BUFQ_CHECKS_ENABLED
  /// Checks builds only: when, and under which seq, the event now being
  /// dispatched was filed; null between events and for boundary events
  /// (dispatch_external).  Lets a component that keeps its timing as state
  /// (LazyLink) audit that an equal-time event was filed before the work
  /// it ties with began, i.e. that it would have popped first.
  struct Origin {
    Time scheduled_at;
    std::uint64_t seq;
  };
  [[nodiscard]] const Origin* dispatching() const { return in_event_ ? &origin_ : nullptr; }
  /// Checks builds only: the seq the next filed event will get.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
#endif

  /// Checkpointable: serializes clock, sequence counter, lifetime event
  /// count and the pending-event count.  The calendar's *contents* are
  /// not serialized — InlineActions cannot be; each component re-arms its
  /// own events via rearm() — so restore_state returns the expected
  /// pending count for the engine to verify once every component has
  /// restored.
  void save_state(CheckpointWriter& w) const;
  [[nodiscard]] std::uint64_t restore_state(CheckpointReader& r);

 private:
  /// The shared per-event body: clock advance, accounting, invoke.
  BUFQ_HOT void dispatch(CalendarQueue::Event& ev) {
    BUFQ_CHECK(ev.time >= now_, check::Invariant::kEventClock, -1, now_, ev.time.to_seconds(),
               now_.to_seconds(), "event calendar ran backwards");
    now_ = ev.time;
    ++processed_;
    events_metric_.add();
    // The depth histogram is a diagnostic distribution, not an exact
    // tally: sampling 1-in-64 keeps its shape while keeping the bucket
    // index math and the write into a 7.5 KiB bucket array off most
    // events.  The rate is part of the recorded values, so checkpoint
    // registry sections and golden digests pin it.
    if ((processed_ & 63u) == 0) {
      depth_metric_.record(static_cast<std::int64_t>(calendar_.size()));
    }
#if BUFQ_CHECKS_ENABLED
    origin_ = Origin{ev.scheduled_at, ev.seq};
    in_event_ = true;
    ev.action();
    in_event_ = false;
#else
    ev.action();
#endif
  }

  CalendarQueue calendar_;
  Time now_{Time::zero()};
  std::uint64_t next_seq_{0};
  std::uint64_t processed_{0};
  bool stopped_{false};
#if BUFQ_CHECKS_ENABLED
  static constexpr Time kFiledBeforeAnything{Time::nanoseconds(INT64_MIN)};
  Origin origin_{};
  bool in_event_{false};
#endif
  // Resolved against the registry installed when the Simulator is built
  // (the run's ScopedMetrics); no-ops when none is.
  obs::CounterHandle events_metric_{obs::CounterHandle::lookup("sim.events")};
  obs::HistogramHandle depth_metric_{obs::HistogramHandle::lookup("sim.calendar_depth")};
};

}  // namespace bufq
