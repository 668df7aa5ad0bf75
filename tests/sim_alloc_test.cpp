// Proves the event loop's zero-allocation contract (DESIGN.md section
// 11): once a fixed event population has warmed the calendar up — key
// heap, action slab and free-slot list at their high-water capacity —
// scheduling and dispatching events touches the heap exactly never.  The
// same holds for a LazyLink settling departures between those events.
//
// Every form of the global allocation functions is replaced with a
// counting wrapper.  The counters run for the whole process; the test
// reads them before and after a steady-state stretch of the event loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "sim/link.h"
#include "sim/queue_discipline.h"
#include "sim/simulator.h"
#include "traffic/sources.h"
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

/// The fabric's shape: every ticker at one gap, each at its own phase,
/// so the calendar holds its whole population in one constant-delay lane
/// whose ring must keep its capacity too.
TEST(SimAllocTest, OneDelayManyPhasesIsAllocationFree) {
  Simulator sim;
  std::vector<Ticker> tickers(256);
  for (std::size_t i = 0; i < tickers.size(); ++i) {
    tickers[i] = Ticker{&sim, Time::nanoseconds(8'333)};
    sim.at(Time::nanoseconds(static_cast<std::int64_t>(i) * 31), [t = &tickers[i]] { t->arm(); });
  }

  sim.run_until(Time::microseconds(2000));
  const std::uint64_t warmup_events = sim.events_processed();
  ASSERT_GT(warmup_events, 10'000u);

  const std::uint64_t allocs_before = g_allocations.load();
  sim.run_until(Time::microseconds(6000));
  const std::uint64_t allocs_after = g_allocations.load();

  ASSERT_GT(sim.events_processed() - warmup_events, 100'000u);
  EXPECT_EQ(sim.events_pending(), tickers.size());
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state event loop performed heap allocations";
}

/// A fixed-capacity ring with tail drop: a discipline that allocates
/// nothing itself, so the test measures only the link and the calendar.
class RingDiscipline final : public QueueDiscipline {
 public:
  bool enqueue(const Packet& packet, Time now) override {
    if (size_ == ring_.size()) {
      if (on_drop_) on_drop_(packet, now);
      return false;
    }
    ring_[(head_ + size_) % ring_.size()] = packet;
    ++size_;
    backlog_ += packet.size_bytes;
    return true;
  }
  std::optional<Packet> dequeue(Time /*now*/) override {
    if (size_ == 0) return std::nullopt;
    const Packet packet = ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    --size_;
    backlog_ -= packet.size_bytes;
    return packet;
  }
  [[nodiscard]] bool empty() const override { return size_ == 0; }
  [[nodiscard]] std::int64_t backlog_bytes() const override { return backlog_; }
  void set_drop_handler(DropHandler handler) override { on_drop_ = std::move(handler); }
  void save_state(CheckpointWriter& /*w*/) const override {}
  void restore_state(CheckpointReader& /*r*/) override {}

 private:
  std::vector<Packet> ring_ = std::vector<Packet>(64);
  std::size_t head_{0};
  std::size_t size_{0};
  std::int64_t backlog_{0};
  DropHandler on_drop_;
};

TEST(SimAllocTest, LazyLinkSteadyStateIsAllocationFree) {
  // Three CBR sources at 1.5x the link rate in all: the link never idles,
  // the ring overflows, and every arrival settles departures first.
  Simulator sim;
  RingDiscipline ring;
  LazyLink link{sim, ring, Rate::megabits_per_second(40.0)};
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  link.set_delivery_handler([&](const Packet&, Time) { ++delivered; });
  ring.set_drop_handler([&](const Packet&, Time) { ++dropped; });
  std::vector<std::unique_ptr<CbrSource>> sources;
  for (FlowId f = 0; f < 3; ++f) {
    sources.push_back(std::make_unique<CbrSource>(sim, link, f, Rate::megabits_per_second(20.0),
                                                  500 + 200 * f));
    sources.back()->start();
  }

  sim.run_until(Time::milliseconds(50));
  const std::uint64_t delivered_before = delivered;
  const std::uint64_t dropped_before = dropped;

  const std::uint64_t allocs_before = g_allocations.load();
  sim.run_until(Time::milliseconds(500));
  link.advance_through(sim.now());
  const std::uint64_t allocs_after = g_allocations.load();

  ASSERT_GT(delivered - delivered_before, 3'000u);
  ASSERT_GT(dropped - dropped_before, 1'000u);
  EXPECT_EQ(sim.events_pending(), sources.size()) << "the lazy link filed events";
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state lazy link performed heap allocations";
}

}  // namespace
}  // namespace bufq
