// parallel_for and PhaseBarrier unit tests: every index runs once, the
// one-thread path stays on the caller in order, and a batch with one
// thread per body lets the bodies meet at a barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "util/task_pool.h"

namespace bufq {
namespace {

TEST(ParallelForTest, RunsEveryIndexOnce) {
  EXPECT_GE(default_thread_count(), 1u);
  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{64}}) {
    std::vector<std::atomic<int>> runs(1000);
    parallel_for(runs.size(), threads,
                 [&runs](std::size_t i) { runs[i].fetch_add(1, std::memory_order_relaxed); });
    for (std::size_t i = 0; i < runs.size(); ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "threads=" << threads << " index=" << i;
    }
  }
}

TEST(ParallelForTest, OneThreadRunsInlineInIndexOrder) {
  // perfbench's paper_sweep appends to an unsynchronized vector at jobs=1.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool on_caller = true;
  parallel_for(5, 1, [&](std::size_t i) {
    on_caller = on_caller && std::this_thread::get_id() == caller;
    order.push_back(i);
  });
  EXPECT_TRUE(on_caller);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroCountRunsNothing) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    bool ran = false;
    parallel_for(0, threads, [&ran](std::size_t) { ran = true; });
    EXPECT_FALSE(ran) << "threads=" << threads;
  }
}

TEST(ParallelForTest, ThreadsEqualToCountRunEveryBodyConcurrently) {
  // The sharded engine's contract: every body meets the others at a
  // barrier, which deadlocks if two bodies had to share a thread.
  constexpr std::size_t kBodies = 4;
  PhaseBarrier barrier{kBodies};
  std::atomic<std::size_t> through{0};
  parallel_for(kBodies, kBodies, [&](std::size_t) {
    barrier.arrive_and_wait();
    through.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(through.load(), kBodies);
}

TEST(PhaseBarrierTest, SinglePartyAdvancesGenerationAndRunsCompletion) {
  int completions = 0;
  PhaseBarrier barrier{1, [&completions] { ++completions; }};
  barrier.arrive_and_wait();
  EXPECT_EQ(completions, 1);
  barrier.arrive_and_wait();
  EXPECT_EQ(completions, 2);
}

TEST(PhaseBarrierTest, CompletionRunsOncePerCycleWhileOthersWait) {
  // The completion callback runs on the last arriver with every other
  // party parked, so it may touch shared state without synchronization
  // beyond the barrier itself — exactly the parallel engine's exchange
  // step.  `sum` and `rounds` are plain ints on purpose.
  constexpr int kParties = 4;
  constexpr int kRounds = 50;
  std::vector<int> contributions(kParties, 0);
  int sum = 0;
  int rounds = 0;
  PhaseBarrier barrier{kParties, [&] {
                         ++rounds;
                         for (const int c : contributions) sum += c;
                       }};
  std::vector<std::thread> threads;
  threads.reserve(kParties);
  for (int p = 0; p < kParties; ++p) {
    threads.emplace_back([&, p] {
      for (int r = 0; r < kRounds; ++r) {
        contributions[static_cast<std::size_t>(p)] = 1;
        barrier.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(rounds, kRounds);
  EXPECT_EQ(sum, kParties * kRounds);
}

TEST(PhaseBarrierTest, ReleasesAllPartiesEachGeneration) {
  constexpr int kParties = 3;
  std::atomic<int> through{0};
  PhaseBarrier barrier{kParties};
  std::vector<std::thread> threads;
  for (int p = 0; p < kParties; ++p) {
    threads.emplace_back([&] {
      for (int r = 0; r < 20; ++r) {
        barrier.arrive_and_wait();
        through.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(through.load(), kParties * 20);
}

}  // namespace
}  // namespace bufq
