// Proves the event loop's zero-allocation contract (DESIGN.md section
// 11): once a fixed event population has warmed the calendar up — key
// heap, action slab and free-slot list at their high-water capacity —
// scheduling and dispatching events touches the heap exactly never.
//
// Every form of the global allocation functions is replaced with a
// counting wrapper.  The counters run for the whole process; the test
// reads them before and after a steady-state stretch of the event loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/simulator.h"
#include "util/units.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace bufq {
namespace {

/// A periodic self-rescheduling event population: every ticker keeps
/// exactly one event pending, so the calendar's depth never exceeds the
/// ticker count and its storage reaches its high-water capacity on the
/// first round of ticks.
struct Ticker {
  Simulator* sim{nullptr};
  Time gap{Time::zero()};

  void arm() {
    const auto tick = [this] { arm(); };
    sim->in(gap, tick);
  }
};

TEST(SimAllocTest, SteadyStateEventLoopIsAllocationFree) {
  Simulator sim;
  std::vector<Ticker> tickers(64);
  for (std::size_t i = 0; i < tickers.size(); ++i) {
    tickers[i] = Ticker{&sim, Time::nanoseconds(1024 * (1 + static_cast<std::int64_t>(i % 4)))};
    tickers[i].arm();
  }

  // Warmup: every calendar vector reaches its high-water capacity
  // (capacities survive pops, so steady state re-uses them).
  sim.run_until(Time::microseconds(2000));
  const std::uint64_t warmup_events = sim.events_processed();
  ASSERT_GT(warmup_events, 10'000u);

  const std::uint64_t allocs_before = g_allocations.load();
  sim.run_until(Time::microseconds(6000));
  const std::uint64_t allocs_after = g_allocations.load();

  ASSERT_GT(sim.events_processed() - warmup_events, 100'000u);
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state event loop performed heap allocations";
}

}  // namespace
}  // namespace bufq
