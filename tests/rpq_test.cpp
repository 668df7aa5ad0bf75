#include "sched/rpq.h"

#include <gtest/gtest.h>

#include "core/buffer_manager.h"
#include "core/threshold.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "traffic/sources.h"

namespace bufq {
namespace {

constexpr Time kNow = Time::zero();

Packet make_packet(FlowId flow, std::uint64_t seq, std::int64_t size = 500) {
  return Packet{.flow = flow, .size_bytes = size, .seq = seq, .created = kNow};
}

TEST(RpqSchedulerTest, TighterDeadlineServedFirst) {
  TailDropManager mgr{ByteSize::bytes(100'000), 2};
  // Flow 0: 10 ms target; flow 1: 1 ms target.
  RpqScheduler rpq{mgr, {Time::milliseconds(10), Time::milliseconds(1)},
                   Time::milliseconds(1)};
  ASSERT_TRUE(rpq.enqueue(make_packet(0, 0), kNow));
  ASSERT_TRUE(rpq.enqueue(make_packet(1, 0), kNow));
  EXPECT_EQ(rpq.dequeue(kNow)->flow, 1);
  EXPECT_EQ(rpq.dequeue(kNow)->flow, 0);
}

TEST(RpqSchedulerTest, SameSlotIsFifo) {
  TailDropManager mgr{ByteSize::bytes(100'000), 2};
  RpqScheduler rpq{mgr, {Time::milliseconds(5), Time::milliseconds(5)},
                   Time::milliseconds(10)};  // coarse: both in one slot
  ASSERT_TRUE(rpq.enqueue(make_packet(0, 0), kNow));
  ASSERT_TRUE(rpq.enqueue(make_packet(1, 0), kNow));
  ASSERT_TRUE(rpq.enqueue(make_packet(0, 1), kNow));
  EXPECT_EQ(rpq.dequeue(kNow)->flow, 0);
  EXPECT_EQ(rpq.dequeue(kNow)->flow, 1);
  const auto third = rpq.dequeue(kNow);
  EXPECT_EQ(third->flow, 0);
  EXPECT_EQ(third->seq, 1u);
}

TEST(RpqSchedulerTest, EqualTargetsDegenerateToFifo) {
  TailDropManager mgr{ByteSize::bytes(100'000), 2};
  RpqScheduler rpq{mgr, {Time::milliseconds(2), Time::milliseconds(2)},
                   Time::microseconds(100)};
  // Enqueue alternately at increasing times; same offsets => FIFO order.
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(rpq.enqueue(make_packet(static_cast<FlowId>(i % 2), i),
                            Time::milliseconds(static_cast<std::int64_t>(i))));
  }
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rpq.dequeue(Time::milliseconds(20))->seq, i);
  }
}

TEST(RpqSchedulerTest, LateArrivalWithTightDeadlinePreempts) {
  TailDropManager mgr{ByteSize::bytes(100'000), 2};
  RpqScheduler rpq{mgr, {Time::milliseconds(50), Time::milliseconds(1)},
                   Time::milliseconds(1)};
  // Flow 0 queues a backlog with lax deadlines...
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(rpq.enqueue(make_packet(0, i), kNow));
  }
  // ...then an urgent flow-1 packet arrives slightly later.
  ASSERT_TRUE(rpq.enqueue(make_packet(1, 0), Time::milliseconds(2)));
  EXPECT_EQ(rpq.dequeue(Time::milliseconds(2))->flow, 1);
}

TEST(RpqSchedulerTest, DropsViaManagerAndHandler) {
  TailDropManager mgr{ByteSize::bytes(1'000), 1};
  RpqScheduler rpq{mgr, {Time::milliseconds(1)}, Time::milliseconds(1)};
  int drops = 0;
  rpq.set_drop_handler([&](const Packet&, Time) { ++drops; });
  ASSERT_TRUE(rpq.enqueue(make_packet(0, 0), kNow));
  ASSERT_TRUE(rpq.enqueue(make_packet(0, 1), kNow));
  EXPECT_FALSE(rpq.enqueue(make_packet(0, 2), kNow));
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(rpq.backlog_bytes(), 1'000);
}

TEST(RpqSchedulerTest, OccupiedSlotsBoundedByHorizon) {
  // Slots in flight never exceed max target / granularity + 1 when the
  // enqueue clock advances monotonically.
  TailDropManager mgr{ByteSize::megabytes(10.0), 1};
  RpqScheduler rpq{mgr, {Time::milliseconds(8)}, Time::milliseconds(1)};
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto now = Time::microseconds(static_cast<std::int64_t>(i) * 137);
    ASSERT_TRUE(rpq.enqueue(make_packet(0, i), now));
    // Keep the queue served (a slot only lingers if the link starves it).
    if (i % 2 == 1) (void)rpq.dequeue(now);
    EXPECT_LE(rpq.occupied_slots(), 9u);
  }
}

TEST(RpqSchedulerTest, RingGrowsForDeadlinesBeyondInitialSpan) {
  // The slot ring is sized from the largest target at construction and
  // doubles when the live deadline span outgrows it; growth must
  // relocate pending packets without disturbing deadline order.
  TailDropManager mgr{ByteSize::bytes(1'000'000), 2};
  RpqScheduler rpq{mgr, {Time::milliseconds(1), Time::milliseconds(100)},
                   Time::milliseconds(1)};
  const std::size_t initial_slots = rpq.ring_slots();
  ASSERT_TRUE(rpq.enqueue(make_packet(0, 0), kNow));
  // Advancing the clock stretches the live span: flow 1's deadline sits
  // ~100 slots past a minimum pinned at slot 0 by the waiting packet.
  Time now = kNow;
  for (std::uint64_t i = 0; i < 600; ++i) {
    now = now + Time::milliseconds(1);
    ASSERT_TRUE(rpq.enqueue(make_packet(1, i), now));
  }
  EXPECT_GT(rpq.ring_slots(), initial_slots);
  // The first packet (earliest deadline) still comes out first, then
  // flow 1 in arrival order.
  EXPECT_EQ(rpq.dequeue(now)->flow, 0);
  for (std::uint64_t i = 0; i < 600; ++i) {
    const auto p = rpq.dequeue(now);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->flow, 1);
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_EQ(rpq.occupied_slots(), 0u);
}

TEST(RpqSchedulerTest, EndToEndDelayTargetsRespected) {
  // A low-rate urgent flow against a saturating bulk flow: with
  // per-flow thresholds and RPQ, the urgent flow's delay stays near its
  // 2 ms target (far below the bulk backlog's drain time), within one
  // granularity quantum.
  Simulator sim;
  ThresholdManager mgr{ByteSize::kilobytes(200.0),
                       std::vector<std::int64_t>{10'000, 190'000}};
  RpqScheduler rpq{mgr, {Time::milliseconds(2), Time::milliseconds(500)},
                   Time::microseconds(500)};
  Link link{sim, rpq, Rate::megabits_per_second(48.0)};

  Time worst_urgent_delay = Time::zero();
  link.set_delivery_handler([&](const Packet& p, Time t) {
    if (p.flow == 0 && t > Time::seconds(1)) {
      worst_urgent_delay = std::max(worst_urgent_delay, t - p.created);
    }
  });

  CbrSource urgent{sim, link, 0, Rate::megabits_per_second(2.0), 500};
  CbrSource bulk{sim, link, 1, Rate::megabits_per_second(96.0), 500};
  bulk.start();
  urgent.start();
  sim.run_until(Time::seconds(10));

  // Deadline 2 ms + one 0.5 ms quantum + one max-packet serialization.
  EXPECT_LT(worst_urgent_delay, Time::milliseconds(3));
  // Sanity: the bulk backlog alone would impose ~31 ms if FIFO'd.
  EXPECT_GT(mgr.occupancy(1), 100'000);
}

}  // namespace
}  // namespace bufq
