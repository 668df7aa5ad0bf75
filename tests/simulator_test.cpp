#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/inline_action.h"

namespace bufq {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), Time::zero());
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(SimulatorTest, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(Time::seconds(3), [&] { order.push_back(3); });
  sim.at(Time::seconds(1), [&] { order.push_back(1); });
  sim.at(Time::seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SimultaneousEventsFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(Time::seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  Time observed = Time::zero();
  sim.at(Time::milliseconds(250), [&] { observed = sim.now(); });
  sim.run();
  EXPECT_EQ(observed, Time::milliseconds(250));
  EXPECT_EQ(sim.now(), Time::milliseconds(250));
}

TEST(SimulatorTest, RelativeScheduling) {
  Simulator sim;
  Time observed = Time::zero();
  sim.at(Time::seconds(1), [&] {
    sim.in(Time::seconds(2), [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(observed, Time::seconds(3));
}

TEST(SimulatorTest, RunUntilAdvancesClockExactly) {
  Simulator sim;
  int fired = 0;
  sim.at(Time::seconds(1), [&] { ++fired; });
  sim.at(Time::seconds(5), [&] { ++fired; });
  sim.run_until(Time::seconds(3));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::seconds(3));
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run_until(Time::seconds(10));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), Time::seconds(10));
}

TEST(SimulatorTest, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool fired = false;
  sim.at(Time::seconds(2), [&] { fired = true; });
  sim.run_until(Time::seconds(2));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, EventsScheduledDuringRunAreProcessed) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 100) sim.in(Time::milliseconds(1), chain);
  };
  sim.at(Time::zero(), chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), Time::milliseconds(99));
}

TEST(SimulatorTest, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.at(Time::seconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.at(Time::seconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  // A later run resumes with remaining events.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StepProcessesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.at(Time::seconds(1), [&] { ++fired; });
  sim.at(Time::seconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 25; ++i) sim.at(Time::seconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 25u);
}

TEST(SimulatorTest, ZeroDelayEventFiresAtCurrentTime) {
  Simulator sim;
  std::vector<int> order;
  sim.at(Time::seconds(1), [&] {
    order.push_back(1);
    sim.in(Time::zero(), [&] { order.push_back(2); });
  });
  sim.at(Time::seconds(1), [&] { order.push_back(3); });
  sim.run();
  // The zero-delay event was scheduled after event 3, so FIFO tie-break
  // puts it last.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

/// A seq reserved before a later at() keeps its earlier place among
/// equal-time events when it is filed afterwards under that seq: the
/// propagation wire relies on this to file each packet only once it
/// reaches the wire's head.
TEST(SimulatorTest, ReservedSeqKeepsItsTiePlace) {
  Simulator sim;
  std::vector<char> order;
  const Time t = Time::milliseconds(5);
  const std::uint64_t s = sim.reserve(t);
  sim.at(t, [&order] { order.push_back('B'); });
  sim.rearm(t, s, [&order] { order.push_back('A'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  std::vector<Time> fire_times;
  // Deterministic pseudo-shuffled insertion order.
  for (int i = 0; i < 10'000; ++i) {
    const auto t = Time::nanoseconds((i * 7919) % 10'000);
    sim.at(t, [&fire_times, &sim] { fire_times.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(fire_times.size(), 10'000u);
  for (std::size_t i = 1; i < fire_times.size(); ++i) {
    ASSERT_LE(fire_times[i - 1], fire_times[i]);
  }
}

// Events never allocate because nothing that would need the heap converts
// to an InlineAction at all: an oversize capture or a functor whose move
// may throw is a compile error at the call site, not a silent fallback.
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  void operator()() {}
};

struct Ticker {
  int fired = 0;
  InlineAction action() {
    const auto tick = [this] { ++fired; };
    static_assert(std::is_constructible_v<InlineAction, decltype(tick)>);
    return tick;
  }
};

TEST(InlineActionTest, OnlyInlineCallablesConvert) {
  const std::array<std::byte, 64> big{};
  const auto oversize = [big] { static_cast<void>(big); };
  static_assert(!std::is_constructible_v<InlineAction, decltype(oversize)>);
  static_assert(!std::is_constructible_v<InlineAction, ThrowingMove>);

  Ticker ticker;
  InlineAction action = ticker.action();
  action();
  EXPECT_EQ(ticker.fired, 1);
}

}  // namespace
}  // namespace bufq
