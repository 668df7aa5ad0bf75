#include "sim/calendar_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
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
// pushes (never before the last popped time, the simulator's contract)
// interleaved with pops, across gap mixes that exercise the heap and the
// constant-delay lanes beside it.  Every pushed action records its own
// seq when run, so a pop that returned the right key with another
// event's action fails too.  Some pops go through pop_min_at_or_before,
// first with a limit just below the minimum (it must refuse and leave
// the calendar as it was).
TEST(CalendarQueueTest, MatchesReferenceHeapOverRandomizedWorkload) {
  enum class Gaps {
    kMixedHorizon,  // mostly near ties, a tail out to 5 ms
    kBimodal,       // ~1 us transmissions and 1 ms wires
    kTiePiles,      // piles of 10^3 events on one timestamp
    kFarFuture,     // most events up to a simulated second out
    kOneHotDelay,   // 97% at one delay, the leaf_spine shape
    kThreeDelays,   // three fixed delays plus exponential one-offs, churn
    kSixHotDelays,  // six delays taking turns over the four lanes
    kStaleRearms,   // older reserved seqs re-armed at a lane tail's time
  };
  struct Mix {
    Gaps gaps;
    std::uint64_t seed;
  };
  const Mix mixes[] = {
      {Gaps::kMixedHorizon, 1}, {Gaps::kBimodal, 2},      {Gaps::kTiePiles, 3},
      {Gaps::kFarFuture, 4},    {Gaps::kOneHotDelay, 5},  {Gaps::kThreeDelays, 6},
      {Gaps::kSixHotDelays, 7}, {Gaps::kStaleRearms, 8},
  };
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (time, seq)
  for (const Mix& mix : mixes) {
    SCOPED_TRACE(static_cast<int>(mix.gaps));
    CalendarQueue q;
    std::priority_queue<Key, std::vector<Key>, std::greater<>> reference;
    std::vector<std::uint64_t> ran;  // seqs of the actions run, in order
    Rng rng{mix.seed};
    std::uint64_t seq = 0;
    std::uint64_t pushed = 0;
    std::int64_t last_popped = 0;
    std::int64_t pile_time = 0;
    std::size_t pile_left = 0;
    std::size_t hot_turn = 0;
    std::int64_t hot_tail = 0;  // time and seq of the last hot-delay filing
    std::uint64_t hot_seq = 0;
    std::deque<std::uint64_t> reserved;  // seqs handed out, not yet filed
    const auto uniform = [&rng](std::int64_t n) {
      return static_cast<std::int64_t>(rng.uniform_u64(static_cast<std::uint64_t>(n)));
    };
    const auto next_key = [&]() -> Key {
      switch (mix.gaps) {
        case Gaps::kMixedHorizon: {
          const std::uint64_t kind = rng.uniform_u64(100);
          if (kind < 60) return {last_popped + uniform(64), seq++};  // incl. ties
          if (kind < 95) return {last_popped + uniform(10'000), seq++};
          return {last_popped + uniform(5'000'000), seq++};
        }
        case Gaps::kBimodal:
          return {last_popped + 1 + uniform(2'000) + (rng.bernoulli(0.5) ? 1'000'000 : 0), seq++};
        case Gaps::kTiePiles:
          if (pile_left == 0) {
            pile_time = last_popped + uniform(10'000);
            pile_left = 1'000;
          }
          --pile_left;
          // Pops may have moved past a pile that is still filling.
          return {std::max(pile_time, last_popped), seq++};
        case Gaps::kFarFuture:
          return {last_popped + (rng.uniform_u64(100) < 80 ? uniform(1'000'000'000) : uniform(64)),
                  seq++};
        case Gaps::kOneHotDelay: {
          const std::uint64_t kind = rng.uniform_u64(1000);
          if (kind < 970) return {last_popped + 8'333, seq++};
          if (kind < 995) return {last_popped + 16'666, seq++};
          return {last_popped + uniform(2'000'000), seq++};
        }
        case Gaps::kThreeDelays: {
          const std::uint64_t kind = rng.uniform_u64(1000);
          if (kind < 654) return {last_popped + 500'000, seq++};
          if (kind < 927) return {last_popped + 4'000'000, seq++};
          if (kind < 966) return {last_popped + 10'000'000, seq++};
          return {last_popped + rng.exponential_time(Time::seconds(1)).ns(), seq++};
        }
        case Gaps::kSixHotDelays: {
          // Runs of a few filings per delay, so delays keep claiming the
          // lanes others left empty.
          constexpr std::int64_t kDelays[] = {1'000, 2'500, 7'000, 13'000, 40'000, 90'000};
          if (rng.uniform_u64(8) == 0) hot_turn = (hot_turn + 1) % 6;
          return {last_popped + kDelays[hot_turn], seq++};
        }
        case Gaps::kStaleRearms: {
          // A wire reserves seqs ahead and files each later; a re-arm
          // under a seq reserved before the hot lane's tail, at the tail's
          // time, has a key below the tail's, so only the heap may hold it.
          if (rng.uniform_u64(100) < 25) reserved.push_back(seq++);
          if (rng.uniform_u64(100) < 20 && !reserved.empty() && reserved.front() < hot_seq &&
              hot_tail >= last_popped) {
            const std::uint64_t old = reserved.front();
            reserved.pop_front();
            return {hot_tail, old};
          }
          hot_tail = last_popped + 8'333;
          hot_seq = seq;
          return {hot_tail, seq++};
        }
      }
      return {last_popped, seq++};
    };
    const auto check_pop = [&](CalendarQueue::Event& ev, const Key& expected) {
      ASSERT_EQ(ev.time.ns(), expected.first);
      ASSERT_EQ(ev.seq, expected.second);
      const std::size_t before = ran.size();
      ev.action();
      ASSERT_EQ(ran.size(), before + 1);
      ASSERT_EQ(ran.back(), expected.second);
    };
    constexpr std::size_t kOps = 250'000;  // per mix, x8 mixes = 2M operations
    for (std::size_t op = 0; op < kOps; ++op) {
      const bool push = reference.empty() || rng.uniform_u64(100) < 55;
      if (push) {
        const auto [t, s] = next_key();
        q.push(CalendarQueue::Event{Time::nanoseconds(t), s,
                                    InlineAction{[&ran, s = s] { ran.push_back(s); }}});
        reference.emplace(t, s);
        ++pushed;
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
    EXPECT_EQ(ran.size(), pushed);
  }
}

// The fabric's shape: many events at one delay with distinct phases.
// Once the first round has been re-filed, every pending event sits in
// one lane and the heap is empty, and the pops still come in (time, seq)
// order.
TEST(CalendarQueueTest, OneDelayManyPhasesLeavesTheHeapEmpty) {
  CalendarQueue q;
  constexpr std::int64_t kGap = 8'333;
  constexpr std::size_t kPhases = 64;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < kPhases; ++i) {
    q.push(make_event(static_cast<std::int64_t>(i) * 100, seq++));
  }
  std::int64_t last_time = -1;
  std::uint64_t last_seq = 0;
  for (std::size_t pop = 0; pop < 10 * kPhases; ++pop) {
    const CalendarQueue::Event ev = q.pop_min();
    ASSERT_TRUE(ev.time.ns() > last_time || (ev.time.ns() == last_time && ev.seq > last_seq));
    last_time = ev.time.ns();
    last_seq = ev.seq;
    q.push(make_event(ev.time.ns() + kGap, seq++));
    ASSERT_EQ(q.size(), kPhases);
  }
  EXPECT_EQ(q.heap_size(), 0u);
}

// Filing through the Simulator, with run_until moving the clock past the
// last pop and events filed between runs as well as from inside events:
// every event dispatches in the (time, seq) order of the keys at() handed
// out, and runs its own action.
TEST(CalendarQueueTest, SimulatorFilingsAfterAClockOnlyAdvanceKeepKeyOrder) {
  struct Run {
    Simulator sim;
    Rng rng{9};
    std::vector<std::pair<std::int64_t, std::uint64_t>> keys;  // by filing
    std::vector<std::size_t> ran;  // filing indices, in dispatch order
    std::size_t budget = 200'000;

    Time hot_delay() {
      constexpr std::int64_t kDelays[] = {8'333, 16'666, 500'000};
      return Time::nanoseconds(kDelays[rng.uniform_u64(100) < 90 ? 0 : 1 + rng.uniform_u64(2)]);
    }
    // Each event re-files itself once until the budget runs out.
    void file(Time at) {
      const std::size_t index = keys.size();
      keys.emplace_back(at.ns(), 0);
      keys[index].second = sim.at(at, [this, index] {
        ran.push_back(index);
        if (budget > 0) {
          --budget;
          file(sim.now() + hot_delay());
        }
      });
    }
  };
  Run run;
  for (int i = 0; i < 32; ++i) run.file(Time::nanoseconds(i * 250));
  std::int64_t horizon = 0;
  while (run.sim.events_pending() > 0) {
    // A horizon that usually falls between events, so the clock moves
    // with no pop; then a few filings from outside any event.
    horizon += 1 + static_cast<std::int64_t>(run.rng.uniform_u64(40'000));
    run.sim.run_until(Time::nanoseconds(horizon));
    for (std::uint64_t k = run.rng.uniform_u64(3); k > 0 && run.budget > 0; --k) {
      --run.budget;
      run.file(run.sim.now() + run.hot_delay());
    }
  }
  std::vector<std::size_t> expected(run.keys.size());
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  std::sort(expected.begin(), expected.end(),
            [&run](std::size_t a, std::size_t b) { return run.keys[a] < run.keys[b]; });
  EXPECT_EQ(run.ran, expected);
}

}  // namespace
}  // namespace bufq
