#include "support/conformance.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "traffic/sources.h"

namespace bufq {
namespace {

class NullSink final : public PacketSink {
 public:
  void accept(const Packet&) override {}
};

class CountingSink final : public PacketSink {
 public:
  void accept(const Packet&) override { ++count; }
  std::uint64_t count{0};
};

TEST(ConformanceMeterTest, ForwardsEverything) {
  Simulator sim;
  CountingSink sink;
  ConformanceMeter meter{sim, sink, ByteSize::kilobytes(1.0), Rate::megabits_per_second(1.0)};
  for (int i = 0; i < 100; ++i) {
    meter.accept(Packet{.flow = 0, .size_bytes = 500, .seq = 0, .created = Time::zero()});
  }
  // Even violating packets are forwarded — the meter is passive.
  EXPECT_EQ(sink.count, 100u);
  EXPECT_EQ(meter.packets_seen(), 100u);
  EXPECT_GT(meter.violations(), 0u);
}

TEST(ConformanceMeterTest, CbrAtTokenRateConforms) {
  Simulator sim;
  NullSink sink;
  ConformanceMeter meter{sim, sink, ByteSize::bytes(500), Rate::megabits_per_second(4.0)};
  CbrSource source{sim, meter, 0, Rate::megabits_per_second(4.0), 500};
  source.start();
  sim.run_until(Time::seconds(10));
  EXPECT_TRUE(meter.conformant());
  EXPECT_GT(meter.packets_seen(), 9'000u);
}

TEST(ConformanceMeterTest, CbrAboveTokenRateViolates) {
  Simulator sim;
  NullSink sink;
  ConformanceMeter meter{sim, sink, ByteSize::bytes(500), Rate::megabits_per_second(4.0)};
  CbrSource source{sim, meter, 0, Rate::megabits_per_second(4.4), 500};
  source.start();
  sim.run_until(Time::seconds(10));
  EXPECT_FALSE(meter.conformant());
}

TEST(ConformanceMeterTest, BurstWithinBucketConforms) {
  Simulator sim;
  NullSink sink;
  ConformanceMeter meter{sim, sink, ByteSize::bytes(5'000), Rate::megabits_per_second(4.0)};
  // 10 packets back-to-back = 5000 bytes = exactly the bucket.
  for (std::uint64_t i = 0; i < 10; ++i) {
    meter.accept(Packet{.flow = 0, .size_bytes = 500, .seq = i, .created = Time::zero()});
  }
  EXPECT_TRUE(meter.conformant());
}

TEST(ConformanceMeterTest, BurstBeyondBucketViolatesOnce) {
  Simulator sim;
  NullSink sink;
  ConformanceMeter meter{sim, sink, ByteSize::bytes(5'000), Rate::megabits_per_second(4.0)};
  for (std::uint64_t i = 0; i < 11; ++i) {
    meter.accept(Packet{.flow = 0, .size_bytes = 500, .seq = i, .created = Time::zero()});
  }
  EXPECT_EQ(meter.violations(), 1u);
}

TEST(ConformanceMeterTest, RecoversAfterViolation) {
  Simulator sim;
  NullSink sink;
  ConformanceMeter meter{sim, sink, ByteSize::bytes(1'000), Rate::megabits_per_second(8.0)};
  // Violate at t=0 with a triple burst.
  for (std::uint64_t i = 0; i < 3; ++i) {
    meter.accept(Packet{.flow = 0, .size_bytes = 500, .seq = i, .created = Time::zero()});
  }
  EXPECT_EQ(meter.violations(), 1u);
  // After the bucket refills, a conformant packet is clean again.
  sim.run_until(Time::seconds(1));
  meter.accept(Packet{.flow = 0, .size_bytes = 500, .seq = 3, .created = sim.now()});
  EXPECT_EQ(meter.violations(), 1u);
}

}  // namespace
}  // namespace bufq
