// Additional parameterized sweeps: hybrid protection across buffer sizes
// and groupings, and shaper conformance across the (sigma, rho) grid.
#include <gtest/gtest.h>

#include <tuple>

#include "expt/experiment.h"
#include "expt/workloads.h"
#include "sim/simulator.h"
#include "support/conformance.h"
#include "traffic/shaper.h"
#include "traffic/sources.h"

namespace bufq {
namespace {

// ------------------------------------------- hybrid protection sweep

/// (buffer KB, use paper grouping?)
using HybridParam = std::tuple<int, bool>;

class HybridProtectionTest : public ::testing::TestWithParam<HybridParam> {};

TEST_P(HybridProtectionTest, ConformantFlowsProtected) {
  const auto [buffer_kb, paper_grouping] = GetParam();
  ExperimentConfig config;
  config.link_rate = paper_link_rate();
  config.buffer = ByteSize::kilobytes(static_cast<double>(buffer_kb));
  config.flows = table1_flows();
  config.scheme.scheduler = SchedulerKind::kHybrid;
  config.scheme.manager = ManagerKind::kSharing;
  config.scheme.headroom = ByteSize::kilobytes(100.0);
  config.scheme.groups = paper_grouping
                             ? case1_groups()
                             : std::vector<std::vector<FlowId>>{{0, 1, 2, 3, 4, 5},
                                                                {6, 7, 8}};
  config.warmup = Time::seconds(2);
  config.duration = Time::seconds(8);
  config.seed = 3;
  const auto result = run_experiment(config);
  // From 300 KB the hybrid protects conformant flows regardless of how
  // the conformant flows themselves are grouped — the load-bearing choice
  // is separating them from the aggressive queue.
  EXPECT_LT(result.loss_ratio(table1_conformant_flows()), 1e-3)
      << "buffer " << buffer_kb << " KB, paper grouping " << paper_grouping;
  EXPECT_GT(result.aggregate_throughput_mbps(), 35.0);
}

INSTANTIATE_TEST_SUITE_P(BufferGroupingGrid, HybridProtectionTest,
                         ::testing::Combine(::testing::Values(300, 500, 1000, 2000),
                                            ::testing::Bool()),
                         [](const auto& test_param) {
                           return "buf" + std::to_string(std::get<0>(test_param.param)) +
                                  (std::get<1>(test_param.param) ? "_3q" : "_2q");
                         });

// --------------------------------------------- shaper conformance grid

/// (sigma KB, rho Mb/s)
using ShaperParam = std::tuple<int, int>;

class ShaperConformanceTest : public ::testing::TestWithParam<ShaperParam> {};

TEST_P(ShaperConformanceTest, OutputAlwaysConformsToItsEnvelope) {
  const auto [sigma_kb, rho_mbps] = GetParam();
  Simulator sim;
  class NullSink final : public PacketSink {
   public:
    void accept(const Packet&) override {}
  } null;
  const auto sigma = ByteSize::kilobytes(static_cast<double>(sigma_kb));
  const auto rho = Rate::megabits_per_second(static_cast<double>(rho_mbps));
  ConformanceMeter meter{sim, null, sigma, rho};
  LeakyBucketShaper shaper{sim, meter, sigma, rho};
  // Feed far-above-profile bursty traffic.
  MarkovOnOffSource::Params params{
      .flow = 0,
      .peak_rate = Rate::megabits_per_second(40.0),
      .mean_on = Time::milliseconds(20),
      .mean_off = Time::milliseconds(30),
      .packet_bytes = 500,
  };
  MarkovOnOffSource source{sim, shaper, params,
                           Rng{static_cast<std::uint64_t>(sigma_kb * 100 + rho_mbps)}};
  source.start();
  sim.run_until(Time::seconds(30));
  EXPECT_GT(meter.packets_seen(), 500u);
  EXPECT_EQ(meter.violations(), 0u)
      << "sigma " << sigma_kb << " KB, rho " << rho_mbps << " Mb/s";
}

INSTANTIATE_TEST_SUITE_P(SigmaRhoGrid, ShaperConformanceTest,
                         ::testing::Combine(::testing::Values(2, 10, 50, 200),
                                            ::testing::Values(1, 4, 16)),
                         [](const auto& test_param) {
                           return "sigma" + std::to_string(std::get<0>(test_param.param)) +
                                  "kb_rho" + std::to_string(std::get<1>(test_param.param)) +
                                  "mbps";
                         });

}  // namespace
}  // namespace bufq
