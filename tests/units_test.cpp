#include "util/units.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "expt/run_harness.h"

namespace bufq {
namespace {

TEST(TimeTest, ConstructorsAgree) {
  EXPECT_EQ(Time::seconds(1), Time::milliseconds(1000));
  EXPECT_EQ(Time::milliseconds(1), Time::microseconds(1000));
  EXPECT_EQ(Time::microseconds(1), Time::nanoseconds(1000));
}

TEST(TimeTest, FromSecondsRoundsToNearestNanosecond) {
  EXPECT_EQ(Time::from_seconds(1.5), Time::milliseconds(1500));
  EXPECT_EQ(Time::from_seconds(1e-9), Time::nanoseconds(1));
  EXPECT_EQ(Time::from_seconds(1.4e-9), Time::nanoseconds(1));
  EXPECT_EQ(Time::from_seconds(1.6e-9), Time::nanoseconds(2));
}

TEST(TimeTest, ToSecondsRoundTrips) {
  const Time t = Time::milliseconds(3500);
  EXPECT_DOUBLE_EQ(t.to_seconds(), 3.5);
}

TEST(TimeTest, ArithmeticAndComparison) {
  const Time a = Time::seconds(2);
  const Time b = Time::seconds(3);
  EXPECT_EQ(a + b, Time::seconds(5));
  EXPECT_EQ(b - a, Time::seconds(1));
  EXPECT_EQ(a * 3, Time::seconds(6));
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_LE(a, a);
}

TEST(TimeTest, CompoundAssignment) {
  Time t = Time::seconds(1);
  t += Time::seconds(2);
  EXPECT_EQ(t, Time::seconds(3));
  t -= Time::seconds(5);
  EXPECT_EQ(t, Time::seconds(-2));
}

TEST(TimeTest, NegativeDurationsAllowed) {
  const Time t = Time::seconds(1) - Time::seconds(3);
  EXPECT_EQ(t.ns(), -2'000'000'000);
  EXPECT_LT(t, Time::zero());
}

TEST(RateTest, UnitConversions) {
  const Rate r = Rate::megabits_per_second(48.0);
  EXPECT_DOUBLE_EQ(r.bps(), 48e6);
  EXPECT_DOUBLE_EQ(r.mbps(), 48.0);
  EXPECT_DOUBLE_EQ(r.bytes_per_second(), 6e6);
  EXPECT_EQ(Rate::kilobits_per_second(1000.0), Rate::megabits_per_second(1.0));
  EXPECT_EQ(Rate::gigabits_per_second(1.0), Rate::megabits_per_second(1000.0));
}

TEST(RateTest, TransmissionTime) {
  // 500 bytes at 48 Mb/s: 4000 bits / 48e6 = 83.333us.
  const Rate r = Rate::megabits_per_second(48.0);
  EXPECT_EQ(r.transmission_time(500), Time::nanoseconds(83'333));
}

TEST(RateTest, TransmissionTimeScalesLinearly) {
  const Rate r = Rate::megabits_per_second(8.0);  // 1 MB/s
  EXPECT_EQ(r.transmission_time(1'000'000), Time::seconds(1));
  EXPECT_EQ(r.transmission_time(500'000), Time::from_seconds(0.5));
}

TEST(RateTest, BytesIn) {
  const Rate r = Rate::megabits_per_second(8.0);
  EXPECT_DOUBLE_EQ(r.bytes_in(Time::seconds(2)), 2e6);
}

TEST(RateTest, ArithmeticAndRatio) {
  const Rate a = Rate::megabits_per_second(2.0);
  const Rate b = Rate::megabits_per_second(6.0);
  EXPECT_EQ(a + b, Rate::megabits_per_second(8.0));
  EXPECT_EQ(b - a, Rate::megabits_per_second(4.0));
  EXPECT_DOUBLE_EQ(a / b, 1.0 / 3.0);
  EXPECT_EQ(a * 3.0, Rate::megabits_per_second(6.0));
  EXPECT_EQ(b / 3.0, Rate::megabits_per_second(2.0));
}

TEST(ByteSizeTest, Constructors) {
  EXPECT_EQ(ByteSize::kilobytes(1.0), ByteSize::bytes(1000));
  EXPECT_EQ(ByteSize::megabytes(1.0), ByteSize::bytes(1'000'000));
  EXPECT_EQ(ByteSize::megabytes(0.5), ByteSize::kilobytes(500.0));
}

TEST(ByteSizeTest, Accessors) {
  const ByteSize b = ByteSize::kilobytes(50.0);
  EXPECT_EQ(b.count(), 50'000);
  EXPECT_DOUBLE_EQ(b.kb(), 50.0);
  EXPECT_DOUBLE_EQ(b.bits(), 400'000.0);
}

TEST(ByteSizeTest, Arithmetic) {
  ByteSize b = ByteSize::kilobytes(10.0);
  b += ByteSize::kilobytes(5.0);
  EXPECT_EQ(b, ByteSize::kilobytes(15.0));
  b -= ByteSize::kilobytes(20.0);
  EXPECT_EQ(b.count(), -5'000);
  EXPECT_EQ(ByteSize::bytes(1) + ByteSize::bytes(2), ByteSize::bytes(3));
}

TEST(UnitsTest, ToStringFormats) {
  EXPECT_EQ(Time::milliseconds(3).to_string(), "3.000ms");
  EXPECT_EQ(Time::zero().to_string(), "0s");
  EXPECT_EQ(Time::nanoseconds(1'500).to_string(), "1.500us");
  EXPECT_EQ(Time::seconds(-1).to_string(), "-1.000s");
  EXPECT_EQ(Rate::megabits_per_second(48.0).to_string(), "48.000Mb/s");
  EXPECT_EQ(ByteSize::megabytes(2.0).to_string(), "2.00MB");
  EXPECT_EQ(ByteSize::bytes(500).to_string(), "500B");
}

TEST(UnitsTest, HarnessRefusalReadsInOnePrecision) {
  try {
    const RunHarness harness{RunSpec{.warmup = Time::seconds(1), .duration = Time::zero()},
                             [](Simulator&, obs::MetricsRegistry&) -> std::unique_ptr<RunModel> {
                               ADD_FAILURE() << "a refused run builds no model";
                               return nullptr;
                             }};
    ADD_FAILURE() << "a zero duration was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "a run needs a positive duration and a non-negative warmup, got duration 0s "
                 "and warmup 1.000s");
  }
}

}  // namespace
}  // namespace bufq
