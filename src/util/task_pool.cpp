#include "util/task_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

namespace bufq {

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body,
                  const std::function<void()>& host) {
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    if (host) host();
    return;
  }
  const std::size_t workers = std::min(threads, count);
  std::atomic<std::size_t> next{workers};
  // No body starts until every thread has: bodies that wait for each
  // other would hang if one of their threads failed to start.
  std::latch start{1};
  bool abandoned = false;
  // jthread joins on destruction, also when a later emplace throws.
  std::vector<std::jthread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        start.wait();
        if (abandoned) return;
        for (std::size_t i = w; i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
          body(i);
        }
      });
    }
  } catch (...) {
    abandoned = true;
    start.count_down();
    throw;
  }
  start.count_down();
  if (host) host();
}

PhaseBarrier::PhaseBarrier(std::size_t parties, std::function<void()> on_completion)
    : on_completion_{std::move(on_completion)}, parties_{parties} {
  assert(parties_ > 0);
}

void PhaseBarrier::arrive_and_wait() {
  std::unique_lock<std::mutex> lock{mu_};
  if (++waiting_ == parties_) {
    // Last arriver: everyone else is blocked in the wait below, so the
    // completion callback sees (and may mutate) inter-phase state without
    // further synchronization.  The mutex also carries the happens-before
    // edge from each party's pre-barrier writes into the callback, and
    // from the callback's writes into each party's post-barrier reads.
    if (on_completion_) on_completion_();
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  const std::uint64_t arrived_at = generation_;
  cv_.wait(lock, [&] { return generation_ != arrived_at; });
}

}  // namespace bufq
