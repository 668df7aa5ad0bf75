// Conservative-lookahead parallel discrete-event coordination.
//
// A sharded run partitions the model into `shards` independent
// Simulators and advances them in lockstep lookahead windows.  The
// window invariant is the classic conservative PDES argument: if every
// path between shards has propagation delay >= L (the lookahead), then
// no event executed in window [T, T+L) can cause an event in another
// shard before T+L — so shards may burn through a whole window without
// hearing from their neighbours, and exchange boundary events only at
// the window barrier.  One barrier per window, no null messages.
//
// The schedule of windows is a pure function of (lookahead, horizon,
// sync_point) — thread timing never moves a window edge — and boundary
// events are delivered in (time, src_shard, seq) order (sim/shard.h), so
// a sharded run is deterministic and, for models whose cross-shard
// traffic flows over uniform-latency links, bit-identical to serial.
//
// Window semantics (mirrored by the model layer's run loop):
//   - interior window with end E: process local events < E, deliver
//     incoming boundary events with time < E at their stamped times,
//     leave the clock at E - 1ns;
//   - after the last interior window (cur == horizon) one final *drain*
//     round delivers boundary events with time <= horizon and processes
//     local events <= horizon, matching serial run_until(horizon)
//     inclusivity.  Drain-round emissions necessarily land after the
//     horizon (transmission ends at t <= horizon arrive at t + prop >
//     horizon) and are discarded with the run complete.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/shard.h"
#include "util/task_pool.h"
#include "util/units.h"

namespace bufq {

/// Barrier-synchronized window scheduler for a sharded run.  Shard
/// workers loop on next_window(); the last arriver of each barrier runs
/// the exchange (drain outboxes, sort, plan the next window) while the
/// others sleep, so all coordinator state is mutated single-threaded
/// with happens-before edges through the barrier mutex — no atomics.
class ParallelCoordinator {
 public:
  struct Config {
    /// Number of shards == number of worker threads at the barrier.
    std::int32_t shards{2};
    /// Minimum cross-shard propagation delay; must be positive (callers
    /// fall back to serial for zero-lookahead partitions).
    Time lookahead{Time::zero()};
    /// End of simulated time; the drain round runs it inclusively.
    Time horizon{Time::zero()};
    /// Forced window edge in (0, horizon); zero means none.  The fabric
    /// engine sets the warmup instant, and its on_sync hook hands the
    /// parked barrier to the harness's warmup snapshot at exactly the
    /// serial snapshot point.
    Time sync_point{Time::zero()};
  };

  /// One lookahead window as seen by a shard worker.
  struct Window {
    Time end{Time::zero()};
    /// True for the drain round: process events <= end instead of < end.
    bool final{false};
    /// Boundary events to deliver, sorted by (time, src_shard, seq); all
    /// have time < end (interior) or <= end (drain).
    std::vector<BoundaryEvent> incoming;
  };

  /// `on_sync()` runs inside the barrier (on the last arriver, all other
  /// workers parked) once the completed windows exactly cover
  /// [0, sync_point).  Until it returns no shard moves, so it may read, or
  /// let another thread read, any shard state the workers left behind.
  using SyncHook = std::function<void()>;

  ParallelCoordinator(Config config, SyncHook on_sync = {});

  /// The emission channel for `shard`; used by its boundary senders.
  [[nodiscard]] BoundaryChannel& channel(std::int32_t shard) {
    return channels_[static_cast<std::size_t>(shard)];
  }

  /// Blocks at the barrier until all shards arrive, then receives the
  /// next window into `out`.  Returns false when the run is complete
  /// (after the drain round) or when any shard arrived with `failed`
  /// set: a failed shard ends the run for every shard at that barrier.
  /// Each shard must keep calling this until it returns false — a failed
  /// shard included, passing `failed` — or the barrier deadlocks.
  [[nodiscard]] bool next_window(std::int32_t shard, Window& out, bool failed = false);

  /// Post-run accounting; read only after every worker has seen
  /// next_window() == false.
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  [[nodiscard]] std::uint64_t boundary_events() const { return boundary_events_; }

 private:
  /// Barrier completion callback: drain outboxes, fire the sync hook,
  /// plan the next window (or the drain round, or completion).
  void advance();

  Config config_;
  SyncHook on_sync_;
  std::vector<BoundaryChannel> channels_;
  /// Per destination shard: boundary events received but not yet due.
  std::vector<std::vector<BoundaryEvent>> pending_;
  /// Per shard: the window planned by the latest advance().
  std::vector<Window> next_;
  /// Per shard: set by next_window(failed = true).  Each shard writes only
  /// its own byte (not vector<bool>, whose bits share words) before it
  /// arrives; advance() reads them all under the barrier.
  std::vector<std::uint8_t> failed_;
  Time cur_{Time::zero()};
  bool drain_issued_{false};
  bool done_{false};
  std::uint64_t windows_{0};
  std::uint64_t boundary_events_{0};
  // Last member: its completion callback touches everything above.
  PhaseBarrier barrier_;
};

}  // namespace bufq
