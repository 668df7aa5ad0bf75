#include "traffic/sources.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace bufq {
namespace {

/// Records everything it receives.
class RecordingSink final : public PacketSink {
 public:
  void accept(const Packet& packet) override { packets.push_back(packet); }

  [[nodiscard]] std::int64_t total_bytes() const {
    std::int64_t sum = 0;
    for (const auto& p : packets) sum += p.size_bytes;
    return sum;
  }

  std::vector<Packet> packets;
};

TEST(CbrSourceTest, EmitsAtExactIntervals) {
  Simulator sim;
  RecordingSink sink;
  CbrSource source{sim, sink, 0, Rate::megabits_per_second(4.0), 500};
  source.start();
  sim.run_until(Time::milliseconds(10));
  // 4 Mb/s = 1000 packets/s of 500B -> 1ms apart; t=0..10ms inclusive = 11.
  ASSERT_EQ(sink.packets.size(), 11u);
  for (std::size_t i = 0; i < sink.packets.size(); ++i) {
    EXPECT_EQ(sink.packets[i].created, Time::milliseconds(static_cast<std::int64_t>(i)));
  }
}

TEST(CbrSourceTest, LongRunRateMatches) {
  Simulator sim;
  RecordingSink sink;
  CbrSource source{sim, sink, 0, Rate::megabits_per_second(2.0), 500};
  source.start();
  sim.run_until(Time::seconds(10));
  const double rate_bps = static_cast<double>(sink.total_bytes()) * 8.0 / 10.0;
  EXPECT_NEAR(rate_bps, 2e6, 2e6 * 0.001);
}

TEST(CbrSourceTest, SequenceNumbersIncrease) {
  Simulator sim;
  RecordingSink sink;
  CbrSource source{sim, sink, 3, Rate::megabits_per_second(4.0), 500};
  source.start();
  sim.run_until(Time::milliseconds(50));
  for (std::size_t i = 0; i < sink.packets.size(); ++i) {
    EXPECT_EQ(sink.packets[i].seq, i);
    EXPECT_EQ(sink.packets[i].flow, 3);
  }
}

TEST(CbrSourceTest, EmitsBackToBackAtConfiguredRate) {
  Simulator sim;
  RecordingSink sink;
  CbrSource source{sim, sink, 0, Rate::megabits_per_second(400.0), 500};
  source.start();
  sim.run_until(Time::milliseconds(10));
  // 400 Mb/s of 500B packets: one per 10us; 1001 packets in 10ms.
  EXPECT_EQ(sink.packets.size(), 1001u);
}

TEST(MarkovOnOffSourceTest, ParamsFromProfileDeriveHoldingTimes) {
  const TrafficProfile profile{
      .peak_rate = Rate::megabits_per_second(40.0),
      .avg_rate = Rate::megabits_per_second(4.0),
      .bucket = ByteSize::kilobytes(50.0),
      .token_rate = Rate::megabits_per_second(0.4),
      .mean_burst = ByteSize::kilobytes(250.0),
      .regulated = false,
  };
  const auto params = MarkovOnOffSource::params_from_profile(6, profile);
  // mean_on = 250KB * 8 / 40Mb = 50ms.
  EXPECT_EQ(params.mean_on, Time::milliseconds(50));
  // duty = 0.1 -> mean_off = 50ms * 9 = 450ms.
  EXPECT_EQ(params.mean_off, Time::milliseconds(450));
  EXPECT_EQ(params.flow, 6);
}

TEST(MarkovOnOffSourceTest, LongRunAverageRateMatchesProfile) {
  Simulator sim;
  RecordingSink sink;
  MarkovOnOffSource::Params params{
      .flow = 0,
      .peak_rate = Rate::megabits_per_second(16.0),
      .mean_on = Time::milliseconds(25),
      .mean_off = Time::milliseconds(175),
      .packet_bytes = 500,
  };
  // avg = peak * duty = 16 * 0.125 = 2 Mb/s.
  MarkovOnOffSource source{sim, sink, params, Rng{77}};
  source.start();
  sim.run_until(Time::seconds(200));
  const double rate_bps = static_cast<double>(sink.total_bytes()) * 8.0 / 200.0;
  EXPECT_NEAR(rate_bps, 2e6, 2e6 * 0.10);
}

TEST(MarkovOnOffSourceTest, EmitsAtPeakRateWhileOn) {
  Simulator sim;
  RecordingSink sink;
  MarkovOnOffSource::Params params{
      .flow = 0,
      .peak_rate = Rate::megabits_per_second(40.0),
      .mean_on = Time::milliseconds(500),
      .mean_off = Time::milliseconds(1),
      .packet_bytes = 500,
  };
  MarkovOnOffSource source{sim, sink, params, Rng{13}};
  source.start();
  sim.run_until(Time::seconds(2));
  ASSERT_GT(sink.packets.size(), 100u);
  // Within a burst, consecutive packets are spaced at the peak-rate gap
  // (100us for 500B at 40Mb/s).
  const Time gap = Rate::megabits_per_second(40.0).transmission_time(500);
  int in_burst_gaps = 0;
  for (std::size_t i = 1; i < sink.packets.size(); ++i) {
    const Time d = sink.packets[i].created - sink.packets[i - 1].created;
    if (d == gap) ++in_burst_gaps;
  }
  // Nearly all gaps are peak-rate gaps in this almost-always-ON setup.
  EXPECT_GT(in_burst_gaps, static_cast<int>(sink.packets.size() * 9 / 10));
}

TEST(MarkovOnOffSourceTest, MeanBurstSizeMatches) {
  Simulator sim;
  RecordingSink sink;
  MarkovOnOffSource::Params params{
      .flow = 0,
      .peak_rate = Rate::megabits_per_second(40.0),
      .mean_on = Time::milliseconds(50),  // mean burst 250 KB
      .mean_off = Time::milliseconds(450),
      .packet_bytes = 500,
  };
  MarkovOnOffSource source{sim, sink, params, Rng{21}};
  source.start();
  sim.run_until(Time::seconds(300));
  ASSERT_GT(sink.packets.size(), 0u);

  // Reconstruct bursts: gaps longer than the peak spacing end a burst.
  const Time gap = Rate::megabits_per_second(40.0).transmission_time(500);
  std::vector<std::int64_t> burst_bytes;
  std::int64_t current = sink.packets[0].size_bytes;
  for (std::size_t i = 1; i < sink.packets.size(); ++i) {
    if (sink.packets[i].created - sink.packets[i - 1].created > gap) {
      burst_bytes.push_back(current);
      current = 0;
    }
    current += sink.packets[i].size_bytes;
  }
  burst_bytes.push_back(current);
  ASSERT_GT(burst_bytes.size(), 100u);
  double mean = 0.0;
  for (auto b : burst_bytes) mean += static_cast<double>(b);
  mean /= static_cast<double>(burst_bytes.size());
  EXPECT_NEAR(mean, 250'000.0, 250'000.0 * 0.15);
}

TEST(MarkovOnOffSourceTest, DeterministicBurstsHaveFixedSize) {
  Simulator sim;
  RecordingSink sink;
  MarkovOnOffSource::Params params{
      .flow = 0,
      .peak_rate = Rate::megabits_per_second(40.0),
      .mean_on = Time::milliseconds(10),  // exactly 50 KB per burst
      .mean_off = Time::milliseconds(90),
      .packet_bytes = 500,
      .on_distribution = BurstDistribution::kDeterministic,
  };
  MarkovOnOffSource source{sim, sink, params, Rng{55}};
  source.start();
  sim.run_until(Time::seconds(30));
  // Reconstruct bursts and verify they are all the same size.
  const Time gap = Rate::megabits_per_second(40.0).transmission_time(500);
  std::vector<std::int64_t> bursts;
  std::int64_t current = sink.packets.empty() ? 0 : sink.packets[0].size_bytes;
  for (std::size_t i = 1; i < sink.packets.size(); ++i) {
    if (sink.packets[i].created - sink.packets[i - 1].created > gap) {
      bursts.push_back(current);
      current = 0;
    }
    current += sink.packets[i].size_bytes;
  }
  ASSERT_GT(bursts.size(), 20u);
  for (std::int64_t b : bursts) EXPECT_EQ(b, 50'000);
}

TEST(MarkovOnOffSourceTest, ParetoBurstsKeepMeanButSpreadWider) {
  auto measure = [](BurstDistribution law) {
    Simulator sim;
    RecordingSink sink;
    MarkovOnOffSource::Params params{
        .flow = 0,
        .peak_rate = Rate::megabits_per_second(40.0),
        .mean_on = Time::milliseconds(10),
        .mean_off = Time::milliseconds(90),
        .packet_bytes = 500,
        .on_distribution = law,
        .pareto_shape = 1.8,
    };
    MarkovOnOffSource source{sim, sink, params, Rng{66}};
    source.start();
    sim.run_until(Time::seconds(400));
    return static_cast<double>(sink.total_bytes()) * 8.0 / 400.0;  // bps
  };
  const double exp_rate = measure(BurstDistribution::kExponential);
  const double pareto_rate = measure(BurstDistribution::kPareto);
  // Long-run mean rate ~4 Mb/s in both cases (heavy tail converges
  // slower, so the tolerance is loose).
  EXPECT_NEAR(exp_rate, 4e6, 4e6 * 0.10);
  EXPECT_NEAR(pareto_rate, 4e6, 4e6 * 0.30);
}

TEST(MarkovOnOffSourceTest, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    Simulator sim;
    RecordingSink sink;
    MarkovOnOffSource::Params params{
        .flow = 0,
        .peak_rate = Rate::megabits_per_second(16.0),
        .mean_on = Time::milliseconds(25),
        .mean_off = Time::milliseconds(175),
        .packet_bytes = 500,
    };
    MarkovOnOffSource source{sim, sink, params, Rng{seed}};
    source.start();
    sim.run_until(Time::seconds(5));
    return sink.packets;
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].created, b[i].created);
  }
  EXPECT_NE(a.size(), c.size());
}

}  // namespace
}  // namespace bufq
