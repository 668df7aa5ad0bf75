#include "sched/wfq.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/buffer_manager.h"
#include "core/threshold.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "traffic/shaper.h"
#include "traffic/sources.h"

namespace bufq {
namespace {

constexpr Time kNow = Time::zero();
const Rate kTestRate = Rate::megabits_per_second(10.0);

Packet make_packet(FlowId flow, std::uint64_t seq, std::int64_t size = 500) {
  return Packet{.flow = flow, .size_bytes = size, .seq = seq, .created = kNow};
}

TEST(WfqSchedulerTest, SingleFlowBehavesFifo) {
  TailDropManager mgr{ByteSize::bytes(100'000), 1};
  WfqScheduler wfq{mgr, kTestRate, std::vector<double>{1.0}};
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(wfq.enqueue(make_packet(0, i), kNow));
  }
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(wfq.dequeue(kNow)->seq, i);
  }
}

TEST(WfqSchedulerTest, PerFlowPacketsStayOrdered) {
  TailDropManager mgr{ByteSize::bytes(100'000), 3};
  WfqScheduler wfq{mgr, kTestRate, std::vector<double>{1.0, 2.0, 4.0}};
  for (std::uint64_t i = 0; i < 10; ++i) {
    for (FlowId f = 0; f < 3; ++f) {
      ASSERT_TRUE(wfq.enqueue(make_packet(f, i), kNow));
    }
  }
  std::map<FlowId, std::uint64_t> next_seq;
  while (auto p = wfq.dequeue(kNow)) {
    EXPECT_EQ(p->seq, next_seq[p->flow]++);
  }
  for (FlowId f = 0; f < 3; ++f) EXPECT_EQ(next_seq[f], 10u);
}

TEST(WfqSchedulerTest, EqualWeightsAlternate) {
  TailDropManager mgr{ByteSize::bytes(100'000), 2};
  WfqScheduler wfq{mgr, kTestRate, std::vector<double>{1.0, 1.0}};
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(wfq.enqueue(make_packet(0, i), kNow));
    ASSERT_TRUE(wfq.enqueue(make_packet(1, i), kNow));
  }
  // Equal weights, equal sizes: service alternates 0,1,0,1,...
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(wfq.dequeue(kNow)->flow, 0);
    EXPECT_EQ(wfq.dequeue(kNow)->flow, 1);
  }
}

TEST(WfqSchedulerTest, WeightsSkewServiceProportionally) {
  // Backlogged flows with weights 3:1 should be served ~3:1.
  TailDropManager mgr{ByteSize::bytes(1'000'000), 2};
  WfqScheduler wfq{mgr, kTestRate, std::vector<double>{3.0, 1.0}};
  for (std::uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(wfq.enqueue(make_packet(0, i), kNow));
    ASSERT_TRUE(wfq.enqueue(make_packet(1, i), kNow));
  }
  int served0 = 0;
  for (int i = 0; i < 200; ++i) {
    if (wfq.dequeue(kNow)->flow == 0) ++served0;
  }
  EXPECT_NEAR(served0, 150, 2);
}

TEST(WfqSchedulerTest, DropsWhenManagerRefuses) {
  TailDropManager mgr{ByteSize::bytes(1'000), 2};
  WfqScheduler wfq{mgr, kTestRate, std::vector<double>{1.0, 1.0}};
  int drops = 0;
  wfq.set_drop_handler([&](const Packet&, Time) { ++drops; });
  ASSERT_TRUE(wfq.enqueue(make_packet(0, 0), kNow));
  ASSERT_TRUE(wfq.enqueue(make_packet(1, 0), kNow));
  EXPECT_FALSE(wfq.enqueue(make_packet(0, 1), kNow));
  EXPECT_EQ(drops, 1);
}

TEST(WfqSchedulerTest, IdleFlowDoesNotBlockOthers) {
  TailDropManager mgr{ByteSize::bytes(100'000), 2};
  WfqScheduler wfq{mgr, kTestRate, std::vector<double>{1.0, 1.0}};
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(wfq.enqueue(make_packet(0, i), kNow));
  }
  int served = 0;
  while (wfq.dequeue(kNow)) ++served;
  EXPECT_EQ(served, 5);
}

TEST(WfqSchedulerTest, LateArrivalDoesNotStarveEarlierBacklog) {
  // A flow arriving to an empty queue gets stamp max(V, last_finish), so
  // it cannot claim service owed to already-queued packets retroactively.
  TailDropManager mgr{ByteSize::bytes(100'000), 2};
  WfqScheduler wfq{mgr, kTestRate, std::vector<double>{1.0, 1.0}};
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(wfq.enqueue(make_packet(0, i), Time::zero()));
  }
  // Serve five packets at the instants a 10 Mb/s link would start them
  // (500 B every 400 us), then flow 1 arrives.
  for (int i = 0; i < 5; ++i) (void)wfq.dequeue(Time::microseconds(400 * i));
  ASSERT_TRUE(wfq.enqueue(make_packet(1, 0), Time::microseconds(2'000)));
  // Flow 1 is stamped at the current virtual time: it gets served within
  // the next two transmissions (its fair share), neither starved behind
  // flow 0's whole backlog nor handed retroactive credit for idling.
  const auto first = wfq.dequeue(Time::microseconds(2'000));
  const auto second = wfq.dequeue(Time::microseconds(2'400));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((first->flow == 1) + (second->flow == 1), 1);
}

TEST(WfqSchedulerTest, BacklogAndEmptyTracking) {
  TailDropManager mgr{ByteSize::bytes(100'000), 2};
  WfqScheduler wfq{mgr, kTestRate, std::vector<double>{1.0, 1.0}};
  EXPECT_TRUE(wfq.empty());
  ASSERT_TRUE(wfq.enqueue(make_packet(0, 0, 300), kNow));
  ASSERT_TRUE(wfq.enqueue(make_packet(1, 0, 200), kNow));
  EXPECT_FALSE(wfq.empty());
  EXPECT_EQ(wfq.backlog_bytes(), 500);
  (void)wfq.dequeue(kNow);
  (void)wfq.dequeue(kNow);
  EXPECT_TRUE(wfq.empty());
  EXPECT_EQ(wfq.backlog_bytes(), 0);
}

TEST(WfqSchedulerTest, ClassBasedMappingGroupsFlows) {
  // Flows 0,1 -> class 0; flow 2 -> class 1.  Within a class, FIFO.
  TailDropManager mgr{ByteSize::bytes(100'000), 3};
  WfqScheduler wfq{mgr, kTestRate, std::vector<std::size_t>{0, 0, 1}, std::vector<double>{1.0, 1.0}};
  ASSERT_TRUE(wfq.enqueue(make_packet(0, 0), kNow));
  ASSERT_TRUE(wfq.enqueue(make_packet(1, 0), kNow));
  ASSERT_TRUE(wfq.enqueue(make_packet(2, 0), kNow));
  ASSERT_TRUE(wfq.enqueue(make_packet(2, 1), kNow));
  // Class 0 and class 1 alternate; inside class 0, flow 0 before flow 1.
  EXPECT_EQ(wfq.dequeue(kNow)->flow, 0);
  EXPECT_EQ(wfq.dequeue(kNow)->flow, 2);
  EXPECT_EQ(wfq.dequeue(kNow)->flow, 1);
  EXPECT_EQ(wfq.dequeue(kNow)->flow, 2);
}

TEST(WfqSchedulerTest, VariablePacketSizesNormalizedByWeight) {
  // Flow 0 sends 1000B packets, flow 1 sends 500B packets, equal weights:
  // byte service should be ~equal, so flow 1 sends twice as many packets.
  TailDropManager mgr{ByteSize::bytes(10'000'000), 2};
  WfqScheduler wfq{mgr, kTestRate, std::vector<double>{1.0, 1.0}};
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(wfq.enqueue(make_packet(0, i, 1000), kNow));
    ASSERT_TRUE(wfq.enqueue(make_packet(1, 2 * i, 500), kNow));
    ASSERT_TRUE(wfq.enqueue(make_packet(1, 2 * i + 1, 500), kNow));
  }
  std::int64_t bytes0 = 0, bytes1 = 0;
  for (int i = 0; i < 600; ++i) {
    const auto p = wfq.dequeue(kNow);
    (p->flow == 0 ? bytes0 : bytes1) += p->size_bytes;
  }
  EXPECT_NEAR(static_cast<double>(bytes0) / static_cast<double>(bytes1), 1.0, 0.02);
}

// ------------------------------------------------- end-to-end via Link

/// Drives two always-backlogged sources through WFQ on a real link and
/// checks the delivered ratio matches the weights (the GPS guarantee).
/// Per-flow thresholds keep both flows backlogged — with shared tail drop
/// the first greedy flow would capture the whole buffer and WFQ could not
/// serve what was never admitted (exactly the paper's argument for buffer
/// management under any scheduler).
TEST(WfqSchedulerTest, EndToEndRateSplitMatchesWeights) {
  Simulator sim;
  ThresholdManager mgr{ByteSize::bytes(50'000), std::vector<std::int64_t>{25'000, 25'000}};
  WfqScheduler wfq{mgr, kTestRate, std::vector<double>{1.0, 3.0}};
  Link link{sim, wfq, Rate::megabits_per_second(10.0)};

  std::vector<std::int64_t> delivered(2, 0);
  link.set_delivery_handler([&](const Packet& p, Time) {
    delivered[static_cast<std::size_t>(p.flow)] += p.size_bytes;
  });

  CbrSource s0{sim, link, 0, Rate::megabits_per_second(20.0), 500};
  CbrSource s1{sim, link, 1, Rate::megabits_per_second(20.0), 500};
  s0.start();
  s1.start();
  sim.run_until(Time::seconds(10));

  const double ratio = static_cast<double>(delivered[1]) / static_cast<double>(delivered[0]);
  EXPECT_NEAR(ratio, 3.0, 0.1);
}

/// GPS-style delay bound: a (sigma, rho) shaped flow whose WFQ share g
/// exceeds rho sees delay at most ~sigma/g plus packetization terms, even
/// with a saturating competitor — the isolation FIFO gives up.
TEST(WfqSchedulerTest, ShapedFlowDelayBoundedBySigmaOverShare) {
  Simulator sim;
  const Rate link = Rate::megabits_per_second(48.0);
  ThresholdManager mgr{ByteSize::kilobytes(500.0),
                       std::vector<std::int64_t>{20'000, 480'000}};
  // Weights grant flow 0 a g = 4 Mb/s share.
  WfqScheduler wfq{mgr, link, std::vector<double>{4e6, 44e6}};
  Link link_obj{sim, wfq, link};

  Time worst_delay = Time::zero();
  link_obj.set_delivery_handler([&](const Packet& p, Time t) {
    if (p.flow == 0 && t > Time::seconds(1)) {
      worst_delay = std::max(worst_delay, t - p.created);
    }
  });

  // Flow 0: (10 KB, 2 Mb/s) shaped bursts; flow 1: saturator.
  LeakyBucketShaper shaper{sim, link_obj, ByteSize::kilobytes(10.0),
                           Rate::megabits_per_second(2.0)};
  MarkovOnOffSource::Params params{
      .flow = 0,
      .peak_rate = Rate::megabits_per_second(16.0),
      .mean_on = Time::milliseconds(5),
      .mean_off = Time::milliseconds(35),
      .packet_bytes = 500,
  };
  MarkovOnOffSource bursty{sim, shaper, params, Rng{31}};
  CbrSource bulk{sim, link_obj, 1, link * 2.0, 500};
  bulk.start();
  bursty.start();
  sim.run_until(Time::seconds(20));

  // sigma/g = 10 KB * 8 / 4 Mb/s = 20 ms; allow generous packetization
  // slack.  A FIFO would expose the flow to the full shared backlog
  // (480 KB / 48 Mb/s = 80 ms).
  EXPECT_LT(worst_delay, Time::milliseconds(25));
  EXPECT_GT(mgr.occupancy(1), 400'000) << "competitor must be backlogged for the test to bite";
}

}  // namespace
}  // namespace bufq
