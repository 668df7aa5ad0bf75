// Parallel execution for embarrassingly parallel simulation work: one
// fixed batch of indices spread over short-lived threads, plus the
// phase barrier the sharded fabric engine synchronizes its windows on.
//
// Determinism of results is the *caller's* job: the sweep engine derives
// every run's seed from its index and writes results into pre-sized
// slots, so which thread runs which index never matters.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>

namespace bufq {

/// Hardware concurrency with a floor of 1 (hardware_concurrency() may
/// return 0 on exotic platforms).
[[nodiscard]] std::size_t default_thread_count();

/// Runs body(i) once for every i in [0, count).  With threads <= 1 the
/// bodies run on the caller, in index order.  Otherwise min(threads,
/// count) fresh threads run them while the caller only waits: thread w
/// starts with index w and then claims the rest from a shared counter,
/// so with threads >= count every body has a thread of its own (bodies
/// that wait for each other at a PhaseBarrier rely on this).  Returns
/// once every body has finished.  If a thread cannot be started, no body
/// runs and the std::system_error propagates.  On the threaded path an
/// exception escaping a body calls std::terminate: record failures in
/// the index's own result slot instead.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

/// Reusable synchronization barrier for long-lived phased workloads (the
/// parallel fabric engine's lookahead windows).  `parties` threads call
/// arrive_and_wait() once per phase; the last arriver runs the completion
/// callback *while holding the barrier lock* (every other party is asleep
/// in the wait, so the callback has exclusive access to any state the
/// parties touch only between barriers), then releases the generation.
///
/// A shard stays pinned to one thread for its whole run (its Simulator,
/// metrics scope, and checker scope are thread-confined), so the engine
/// runs one long-lived body per shard and synchronizes the lookahead
/// windows here.  Purely condvar-based, with no spinning, so it degrades
/// gracefully with more shards than cores.
class PhaseBarrier {
 public:
  /// `on_completion` may be empty; when set it runs once per phase, on the
  /// last arriving thread, before the others wake.
  explicit PhaseBarrier(std::size_t parties, std::function<void()> on_completion = {});

  PhaseBarrier(const PhaseBarrier&) = delete;
  PhaseBarrier& operator=(const PhaseBarrier&) = delete;

  /// Blocks until all `parties` threads of the current phase have arrived.
  void arrive_and_wait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> on_completion_;
  std::size_t parties_;
  std::size_t waiting_{0};
  std::uint64_t generation_{0};
};

}  // namespace bufq
