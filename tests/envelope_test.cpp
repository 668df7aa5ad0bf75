#include "traffic/envelope.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "support/conformance.h"
#include "traffic/shaper.h"
#include "traffic/sources.h"

namespace bufq {
namespace {

class NullSink final : public PacketSink {
 public:
  void accept(const Packet&) override {}
};

TEST(SigmaForRateTest, SinglePacketNeedsItsOwnSize) {
  SigmaForRate tracker{Rate::megabits_per_second(1.0)};
  tracker.arrive(500, Time::zero());
  EXPECT_DOUBLE_EQ(tracker.min_sigma(), 500.0);
}

TEST(SigmaForRateTest, CbrAtRateNeedsOnePacket) {
  // Packets of 500 B every 1 ms at exactly 4 Mb/s: the drift returns to
  // zero between packets, so sigma* is one packet.
  SigmaForRate tracker{Rate::megabits_per_second(4.0)};
  for (int i = 0; i < 1000; ++i) {
    tracker.arrive(500, Time::milliseconds(i));
  }
  EXPECT_NEAR(tracker.min_sigma(), 500.0, 1e-6);
}

TEST(SigmaForRateTest, CbrAboveRateNeedsGrowingSigma) {
  // 500 B every 1 ms is 4 Mb/s; with rho = 2 Mb/s the deficit grows by
  // 250 B per packet.
  SigmaForRate tracker{Rate::megabits_per_second(2.0)};
  for (int i = 0; i < 100; ++i) {
    tracker.arrive(500, Time::milliseconds(i));
  }
  // After 100 packets: climb ~ 500 + 99 * 250.
  EXPECT_NEAR(tracker.min_sigma(), 500.0 + 99 * 250.0, 1.0);
}

TEST(SigmaForRateTest, BurstThenSilenceNeedsBurstSize) {
  SigmaForRate tracker{Rate::megabits_per_second(4.0)};
  for (int i = 0; i < 20; ++i) tracker.arrive(500, Time::zero());  // 10 KB burst
  tracker.arrive(500, Time::seconds(10));  // long silence, then one packet
  EXPECT_NEAR(tracker.min_sigma(), 10'000.0, 1e-6);
}

TEST(SigmaForRateTest, HigherRateNeedsSmallerSigma) {
  // Monotonicity: sigma*(rho) is non-increasing in rho.
  SigmaForRate slow{Rate::megabits_per_second(1.0)};
  SigmaForRate fast{Rate::megabits_per_second(8.0)};
  Rng rng{7};
  Time t = Time::zero();
  for (int i = 0; i < 1000; ++i) {
    t += Time::microseconds(100 + static_cast<std::int64_t>(rng.uniform_u64(2'000)));
    slow.arrive(500, t);
    fast.arrive(500, t);
  }
  EXPECT_GE(slow.min_sigma(), fast.min_sigma());
}

TEST(EnvelopeEstimatorTest, ShapedStreamMeasuresItsOwnProfile) {
  // A stream shaped to (50 KB, 2 Mb/s) must measure sigma* <= 50 KB at
  // rho = 2 Mb/s — and strictly more at half that rate.
  Simulator sim;
  NullSink null;
  EnvelopeEstimator estimator{
      sim, null, 0,
      {Rate::megabits_per_second(1.0), Rate::megabits_per_second(2.0),
       Rate::megabits_per_second(4.0)}};
  LeakyBucketShaper shaper{sim, estimator, ByteSize::kilobytes(50.0),
                           Rate::megabits_per_second(2.0), Rate::megabits_per_second(16.0)};
  MarkovOnOffSource::Params params{
      .flow = 0,
      .peak_rate = Rate::megabits_per_second(16.0),
      .mean_on = Time::milliseconds(25),
      .mean_off = Time::milliseconds(175),
      .packet_bytes = 500,
  };
  MarkovOnOffSource source{sim, shaper, params, Rng{11}};
  source.start();
  sim.run_until(Time::seconds(120));

  EXPECT_LE(estimator.min_sigma(1), 50'000.0 + 500.0) << "at the shaping rate";
  EXPECT_GT(estimator.min_sigma(0), estimator.min_sigma(1)) << "below the shaping rate";
  EXPECT_LE(estimator.min_sigma(2), estimator.min_sigma(1)) << "above the shaping rate";
}

TEST(EnvelopeEstimatorTest, MeasuredProfileActuallyConforms) {
  // Round-trip: measure sigma* on a captured stream, then verify the
  // same stream against a (sigma*, rho) meter — zero violations.
  Simulator sim;
  NullSink null;
  const Rate rho = Rate::megabits_per_second(3.0);
  EnvelopeEstimator estimator{sim, null, 0, {rho}};
  MarkovOnOffSource::Params params{
      .flow = 0,
      .peak_rate = Rate::megabits_per_second(16.0),
      .mean_on = Time::milliseconds(10),
      .mean_off = Time::milliseconds(70),
      .packet_bytes = 500,
  };
  {
    MarkovOnOffSource source{sim, estimator, params, Rng{13}};
    source.start();
    sim.run_until(Time::seconds(30));
  }
  const double sigma_star = estimator.min_sigma(0);
  ASSERT_GT(sigma_star, 0.0);

  // Replay the identical stream (same seed) through a meter provisioned
  // with the measurement.
  Simulator sim2;
  ConformanceMeter meter{sim2, null,
                         ByteSize::bytes(static_cast<std::int64_t>(sigma_star) + 1), rho};
  MarkovOnOffSource source2{sim2, meter, params, Rng{13}};
  source2.start();
  sim2.run_until(Time::seconds(30));
  EXPECT_EQ(meter.violations(), 0u);
}

TEST(EnvelopeEstimatorTest, RateForSigmaBudget) {
  Simulator sim;
  NullSink null;
  std::vector<Rate> grid;
  for (int mbps = 1; mbps <= 8; ++mbps) grid.push_back(Rate::megabits_per_second(mbps));
  EnvelopeEstimator estimator{sim, null, 0, grid};
  // CBR at 4 Mb/s: any rho >= 4 needs one packet; below needs unbounded
  // growth over time.
  CbrSource source{sim, estimator, 0, Rate::megabits_per_second(4.0), 500};
  source.start();
  sim.run_until(Time::seconds(30));
  const Rate chosen = estimator.rate_for_sigma_budget(ByteSize::kilobytes(10.0));
  EXPECT_DOUBLE_EQ(chosen.mbps(), 4.0);
}

TEST(EnvelopeEstimatorTest, FiltersByFlow) {
  Simulator sim;
  NullSink null;
  EnvelopeEstimator estimator{sim, null, 1, {Rate::megabits_per_second(100.0)}};
  estimator.accept(Packet{.flow = 0, .size_bytes = 500, .seq = 0, .created = Time::zero()});
  EXPECT_DOUBLE_EQ(estimator.min_sigma(0), 0.0);
  estimator.accept(Packet{.flow = 1, .size_bytes = 500, .seq = 0, .created = Time::zero()});
  EXPECT_DOUBLE_EQ(estimator.min_sigma(0), 500.0);
}

}  // namespace
}  // namespace bufq
