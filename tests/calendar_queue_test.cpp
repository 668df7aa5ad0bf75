#include "sim/calendar_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"

namespace bufq {
namespace {

CalendarQueue::Event make_event(std::int64_t ns, std::uint64_t seq) {
  return CalendarQueue::Event{Time::nanoseconds(ns), seq, InlineAction{}};
}

// Equal timestamps must pop in push (sequence) order, however the ties
// are interleaved with neighbouring times, and a deep same-time pile
// must come out in push order too.
TEST(CalendarQueueTest, EqualTimestampFifoAcrossBucketBoundaries) {
  CalendarQueue q;
  std::uint64_t seq = 0;
  std::vector<std::pair<std::int64_t, std::uint64_t>> expected;
  // Ties on 8192 ns (the old calendar's first bucket edge), just before
  // it and just after it, interleaved so no push order matches the pop
  // order.
  for (const std::int64_t ns : {8192, 8191, 8192, 8193, 8191, 8192, 8208, 8193, 8192, 8191,
                                8208, 8192}) {
    expected.emplace_back(ns, seq);
    q.push(make_event(ns, seq++));
  }
  for (int i = 0; i < 20; ++i) {
    expected.emplace_back(16384, seq);
    q.push(make_event(16384, seq++));
  }
  std::sort(expected.begin(), expected.end());
  for (const auto& [ns, s] : expected) {
    const CalendarQueue::Event ev = q.pop_min();
    EXPECT_EQ(ev.time.ns(), ns);
    EXPECT_EQ(ev.seq, s);
  }
  EXPECT_TRUE(q.empty());
}

// run_until() landing exactly on a bucket-edge timestamp processes that
// timestamp (<= horizon), leaves strictly later events pending, and
// parks the clock on the horizon.
TEST(CalendarQueueTest, RunUntilExactlyOnBucketEdge) {
  Simulator sim;
  // 8192 ns was the first bucket edge of the old bucketed calendar.
  const std::int64_t edge = 8192;
  std::vector<std::int64_t> fired;
  for (const std::int64_t ns : {edge - 1, edge, edge + 1}) {
    sim.at(Time::nanoseconds(ns), [&fired, ns] { fired.push_back(ns); });
  }
  sim.run_until(Time::nanoseconds(edge));
  EXPECT_EQ(fired, (std::vector<std::int64_t>{edge - 1, edge}));
  EXPECT_EQ(sim.now().ns(), edge);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run_until(Time::nanoseconds(edge + 1));
  EXPECT_EQ(fired.size(), 3u);
}

// stop() inside an event ends the run with the later events still
// pending; a later run() resumes from exactly where it left off.
TEST(CalendarQueueTest, StopAndResumeMidBucket) {
  Simulator sim;
  std::vector<int> fired;
  // All three within 300 ns of each other.
  sim.at(Time::nanoseconds(100), [&fired] { fired.push_back(1); });
  sim.at(Time::nanoseconds(200), [&] {
    fired.push_back(2);
    sim.stop();
  });
  sim.at(Time::nanoseconds(300), [&fired] { fired.push_back(3); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_pending(), 1u);
  EXPECT_EQ(sim.now().ns(), 200);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(sim.stopped() == false);
}

// The same holds for run_until: a stop mid-horizon must not advance the
// clock to the horizon, and the next run_until picks the rest back up.
TEST(CalendarQueueTest, StopDoesNotAdvanceRunUntilHorizon) {
  Simulator sim;
  int fired = 0;
  sim.at(Time::nanoseconds(10), [&] {
    ++fired;
    sim.stop();
  });
  sim.at(Time::nanoseconds(20), [&] { ++fired; });
  sim.run_until(Time::nanoseconds(1000));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ns(), 10);
  sim.run_until(Time::nanoseconds(1000));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now().ns(), 1000);
}

// Differential fuzz against a reference heap ordered by (time, seq):
// one million operations of pushes (never before the last popped time,
// the simulator's contract) interleaved with pops, across four gap
// mixes.  Every pushed action records its own seq when run, so a pop
// that returned the right key with another event's action fails too.
// Some pops go through pop_min_at_or_before, first with a limit just
// below the minimum (it must refuse and leave the calendar as it was).
TEST(CalendarQueueTest, MatchesReferenceHeapOverRandomizedWorkload) {
  enum class Gaps {
    kMixedHorizon,  // mostly near ties, a tail out to 5 ms
    kBimodal,       // ~1 us transmissions and 1 ms wires, the fabric shape
    kTiePiles,      // piles of 10^3 events on one timestamp
    kFarFuture,     // most events up to a simulated second out
  };
  struct Mix {
    Gaps gaps;
    std::uint64_t seed;
  };
  const Mix mixes[] = {
      {Gaps::kMixedHorizon, 1},
      {Gaps::kBimodal, 2},
      {Gaps::kTiePiles, 3},
      {Gaps::kFarFuture, 4},
  };
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (time, seq)
  for (const Mix& mix : mixes) {
    SCOPED_TRACE(static_cast<int>(mix.gaps));
    CalendarQueue q;
    std::priority_queue<Key, std::vector<Key>, std::greater<>> reference;
    std::vector<std::uint64_t> ran;  // seqs of the actions run, in order
    Rng rng{mix.seed};
    std::uint64_t seq = 0;
    std::int64_t last_popped = 0;
    std::int64_t pile_time = 0;
    std::size_t pile_left = 0;
    const auto next_time = [&]() -> std::int64_t {
      const auto uniform = [&rng](std::int64_t n) {
        return static_cast<std::int64_t>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
      };
      switch (mix.gaps) {
        case Gaps::kMixedHorizon: {
          const std::uint64_t kind = rng.uniform_u64(100);
          if (kind < 60) return last_popped + uniform(64);  // incl. ties
          if (kind < 95) return last_popped + uniform(10'000);
          return last_popped + uniform(5'000'000);
        }
        case Gaps::kBimodal:
          return last_popped + 1 + uniform(2'000) + (rng.bernoulli(0.5) ? 1'000'000 : 0);
        case Gaps::kTiePiles:
          if (pile_left == 0) {
            pile_time = last_popped + uniform(10'000);
            pile_left = 1'000;
          }
          --pile_left;
          // Pops may have moved past a pile that is still filling.
          return std::max(pile_time, last_popped);
        case Gaps::kFarFuture:
          return last_popped + (rng.uniform_u64(100) < 80 ? uniform(1'000'000'000) : uniform(64));
      }
      return last_popped;
    };
    const auto check_pop = [&](CalendarQueue::Event& ev, const Key& expected) {
      ASSERT_EQ(ev.time.ns(), expected.first);
      ASSERT_EQ(ev.seq, expected.second);
      const std::size_t before = ran.size();
      ev.action();
      ASSERT_EQ(ran.size(), before + 1);
      ASSERT_EQ(ran.back(), expected.second);
    };
    constexpr std::size_t kOps = 250'000;  // x4 mixes = 1M operations
    for (std::size_t op = 0; op < kOps; ++op) {
      const bool push = reference.empty() || rng.uniform_u64(100) < 55;
      if (push) {
        const std::int64_t t = next_time();
        const std::uint64_t s = seq++;
        q.push(CalendarQueue::Event{Time::nanoseconds(t), s,
                                    InlineAction{[&ran, s] { ran.push_back(s); }}});
        reference.emplace(t, s);
      } else {
        const Key expected = reference.top();
        reference.pop();
        ASSERT_EQ(q.min_time().ns(), expected.first);
        CalendarQueue::Event ev;
        if (rng.uniform_u64(4) == 0) {
          ASSERT_FALSE(q.pop_min_at_or_before(Time::nanoseconds(expected.first - 1), ev));
          ASSERT_EQ(q.size(), reference.size() + 1);
          ASSERT_EQ(q.min_time().ns(), expected.first);
          ASSERT_TRUE(q.pop_min_at_or_before(Time::nanoseconds(expected.first), ev));
        } else {
          ev = q.pop_min();
        }
        ASSERT_NO_FATAL_FAILURE(check_pop(ev, expected));
        last_popped = expected.first;
      }
      ASSERT_EQ(q.size(), reference.size());
    }
    while (!reference.empty()) {
      const Key expected = reference.top();
      reference.pop();
      CalendarQueue::Event ev = q.pop_min();
      ASSERT_NO_FATAL_FAILURE(check_pop(ev, expected));
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(ran.size(), seq);
  }
}

}  // namespace
}  // namespace bufq
