#include "sim/link.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/threshold.h"
#include "sched/fifo.h"
#include "sim/simulator.h"
#include "traffic/sources.h"

namespace bufq {
namespace {

struct Harness {
  Simulator sim;
  TailDropManager mgr{ByteSize::megabytes(1.0), 4};
  FifoScheduler fifo{mgr};
  Link link{sim, fifo, Rate::megabits_per_second(4.0)};  // 500 B = 1 ms
  std::vector<std::pair<Packet, Time>> delivered;

  Harness() {
    link.set_delivery_handler(
        [this](const Packet& p, Time t) { delivered.emplace_back(p, t); });
  }
};

Packet make_packet(FlowId flow, std::uint64_t seq, std::int64_t size = 500) {
  return Packet{.flow = flow, .size_bytes = size, .seq = seq, .created = Time::zero()};
}

TEST(LinkTest, TransmitsSinglePacketAfterSerializationDelay) {
  Harness h;
  h.link.accept(make_packet(0, 0));
  EXPECT_TRUE(h.link.busy());
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].second, Time::milliseconds(1));
  EXPECT_FALSE(h.link.busy());
}

TEST(LinkTest, BackToBackPacketsSpacedBySerialization) {
  Harness h;
  for (std::uint64_t i = 0; i < 5; ++i) h.link.accept(make_packet(0, i));
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(h.delivered[i].second, Time::milliseconds(static_cast<std::int64_t>(i + 1)));
  }
}

TEST(LinkTest, LargerPacketsTakeProportionallyLonger) {
  Harness h;
  h.link.accept(make_packet(0, 0, 1500));
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].second, Time::milliseconds(3));
}

TEST(LinkTest, WorkConservingAcrossIdlePeriods) {
  Harness h;
  h.link.accept(make_packet(0, 0));
  h.sim.run();
  // Second packet arrives after an idle gap; service restarts immediately.
  h.sim.at(Time::seconds(1), [&] { h.link.accept(make_packet(0, 1)); });
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 2u);
  EXPECT_EQ(h.delivered[1].second, Time::seconds(1) + Time::milliseconds(1));
}

TEST(LinkTest, CountsDeliveredBytesAndPackets) {
  Harness h;
  for (std::uint64_t i = 0; i < 7; ++i) h.link.accept(make_packet(0, i, 300));
  h.sim.run();
  EXPECT_EQ(h.link.packets_delivered(), 7u);
  EXPECT_EQ(h.link.bytes_delivered(), 2'100);
}

TEST(LinkTest, UtilizationCapsAtLinkRate) {
  // Offer 3x the link rate; delivered bytes over a long window must not
  // exceed capacity (work conservation from the other side).
  Harness h;
  CbrSource source{h.sim, h.link, 0, Rate::megabits_per_second(12.0), 500};
  source.start();
  h.sim.run_until(Time::seconds(10));
  const double delivered_bps = static_cast<double>(h.link.bytes_delivered()) * 8.0 / 10.0;
  EXPECT_LE(delivered_bps, 4e6 * 1.001);
  EXPECT_GE(delivered_bps, 4e6 * 0.999);  // and it is fully utilized
}

TEST(LinkTest, FifoOrderPreservedEndToEnd) {
  Harness h;
  for (std::uint64_t i = 0; i < 100; ++i) {
    h.link.accept(make_packet(static_cast<FlowId>(i % 4), i));
  }
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(h.delivered[i].first.seq, i);
  }
}

TEST(LinkTest, DroppedPacketsAreNeverDelivered) {
  Simulator sim;
  TailDropManager mgr{ByteSize::bytes(1'000), 1};  // two packets max
  FifoScheduler fifo{mgr};
  Link link{sim, fifo, Rate::megabits_per_second(4.0)};
  int drops = 0;
  fifo.set_drop_handler([&](const Packet&, Time) { ++drops; });
  std::vector<std::uint64_t> delivered_seqs;
  link.set_delivery_handler(
      [&](const Packet& p, Time) { delivered_seqs.push_back(p.seq); });
  // Burst of 5: one enters service immediately, two buffered, two dropped.
  for (std::uint64_t i = 0; i < 5; ++i) link.accept(make_packet(0, i));
  sim.run();
  EXPECT_EQ(drops, 2);
  EXPECT_EQ(delivered_seqs, (std::vector<std::uint64_t>{0, 1, 2}));
}

}  // namespace
}  // namespace bufq
