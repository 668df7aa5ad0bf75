#include "traffic/shaper.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"
#include "support/conformance.h"
#include "traffic/sources.h"

namespace bufq {
namespace {

class RecordingSink final : public PacketSink {
 public:
  void accept(const Packet& packet) override { packets.push_back(packet); }
  std::vector<Packet> packets;
};

class NullSink final : public PacketSink {
 public:
  void accept(const Packet&) override {}
};

TEST(ShaperTest, ConformantPacketPassesImmediately) {
  Simulator sim;
  RecordingSink sink;
  LeakyBucketShaper shaper{sim, sink, ByteSize::kilobytes(50.0),
                           Rate::megabits_per_second(2.0)};
  shaper.accept(Packet{.flow = 0, .size_bytes = 500, .seq = 0, .created = Time::zero()});
  sim.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].created, Time::zero());
}

TEST(ShaperTest, BurstBeyondBucketIsDelayedNotDropped) {
  Simulator sim;
  RecordingSink sink;
  // Bucket of exactly 2 packets; token rate 1 MB/s.
  LeakyBucketShaper shaper{sim, sink, ByteSize::bytes(1000), Rate::megabits_per_second(8.0)};
  for (std::uint64_t i = 0; i < 4; ++i) {
    shaper.accept(Packet{.flow = 0, .size_bytes = 500, .seq = i, .created = Time::zero()});
  }
  sim.run();
  ASSERT_EQ(sink.packets.size(), 4u);
  // First two pass at t=0; third waits for 500 tokens (0.5ms), fourth 1ms.
  EXPECT_EQ(sink.packets[0].created, Time::zero());
  EXPECT_EQ(sink.packets[1].created, Time::zero());
  EXPECT_NEAR(sink.packets[2].created.to_seconds(), 0.0005, 1e-5);
  EXPECT_NEAR(sink.packets[3].created.to_seconds(), 0.0010, 1e-5);
}

TEST(ShaperTest, PreservesPacketOrder) {
  Simulator sim;
  RecordingSink sink;
  LeakyBucketShaper shaper{sim, sink, ByteSize::bytes(600), Rate::megabits_per_second(4.0)};
  for (std::uint64_t i = 0; i < 50; ++i) {
    shaper.accept(Packet{.flow = 0, .size_bytes = 500, .seq = i, .created = Time::zero()});
  }
  sim.run();
  ASSERT_EQ(sink.packets.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(sink.packets[i].seq, i);
}

TEST(ShaperTest, OutputConformsToEnvelope) {
  // An aggressive ON-OFF source shaped by (sigma, rho) must produce a
  // stream the conformance meter accepts.
  Simulator sim;
  NullSink null;
  ConformanceMeter meter{sim, null, ByteSize::kilobytes(50.0), Rate::megabits_per_second(2.0)};
  LeakyBucketShaper shaper{sim, meter, ByteSize::kilobytes(50.0),
                           Rate::megabits_per_second(2.0), Rate::megabits_per_second(16.0)};
  MarkovOnOffSource::Params params{
      .flow = 0,
      .peak_rate = Rate::megabits_per_second(16.0),
      .mean_on = Time::milliseconds(25),
      .mean_off = Time::milliseconds(175),
      .packet_bytes = 500,
  };
  MarkovOnOffSource source{sim, shaper, params, Rng{3}};
  source.start();
  sim.run_until(Time::seconds(60));
  EXPECT_GT(meter.packets_seen(), 1000u);
  EXPECT_EQ(meter.violations(), 0u) << "shaped stream violated its own envelope";
}

TEST(ShaperTest, PeakRateSpacingEnforced) {
  Simulator sim;
  RecordingSink sink;
  // Huge bucket so only the peak-rate spacing constrains.
  LeakyBucketShaper shaper{sim, sink, ByteSize::megabytes(10.0),
                           Rate::megabits_per_second(40.0), Rate::megabits_per_second(4.0)};
  for (std::uint64_t i = 0; i < 10; ++i) {
    shaper.accept(Packet{.flow = 0, .size_bytes = 500, .seq = i, .created = Time::zero()});
  }
  sim.run();
  ASSERT_EQ(sink.packets.size(), 10u);
  const Time min_gap = Rate::megabits_per_second(4.0).transmission_time(500);
  for (std::size_t i = 1; i < sink.packets.size(); ++i) {
    EXPECT_GE(sink.packets[i].created - sink.packets[i - 1].created, min_gap);
  }
}

TEST(ShaperTest, ThroughputCapsAtTokenRate) {
  Simulator sim;
  RecordingSink sink;
  LeakyBucketShaper shaper{sim, sink, ByteSize::kilobytes(10.0),
                           Rate::megabits_per_second(2.0)};
  CbrSource source{sim, shaper, 0, Rate::megabits_per_second(20.0), 500};
  source.start();
  sim.run_until(Time::seconds(10));
  std::int64_t bytes = 0;
  for (const auto& p : sink.packets) bytes += p.size_bytes;
  const double rate = static_cast<double>(bytes) * 8.0 / 10.0;
  // sigma adds a transient; long-run rate approaches rho from above.
  EXPECT_LT(rate, 2e6 * 1.02);
  EXPECT_GT(rate, 2e6 * 0.98);
}

TEST(ShaperTest, QueueDrainsWhenSourcePauses) {
  Simulator sim;
  RecordingSink sink;
  LeakyBucketShaper shaper{sim, sink, ByteSize::bytes(500), Rate::megabits_per_second(8.0)};
  for (std::uint64_t i = 0; i < 20; ++i) {
    shaper.accept(Packet{.flow = 0, .size_bytes = 500, .seq = i, .created = Time::zero()});
  }
  EXPECT_GT(shaper.queue_length(), 0u);
  sim.run();
  EXPECT_EQ(shaper.queue_length(), 0u);
  EXPECT_EQ(sink.packets.size(), 20u);
  std::int64_t forwarded = 0;
  for (const auto& p : sink.packets) forwarded += p.size_bytes;
  EXPECT_EQ(forwarded, 20 * 500);
}

}  // namespace
}  // namespace bufq
