// Integration tests of the full pipeline on shortened versions of the
// paper's Table 1 scenario.  These runs use smaller horizons than the
// benches to keep the suite fast, so assertions are qualitative: who is
// protected, who is not, and conservation laws.
#include "expt/experiment.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "expt/workloads.h"

namespace bufq {
namespace {

ExperimentConfig base_config(SchedulerKind sched, ManagerKind mgr, double buffer_mb,
                             std::uint64_t seed = 1) {
  ExperimentConfig config;
  config.link_rate = paper_link_rate();
  config.buffer = ByteSize::megabytes(buffer_mb);
  config.flows = table1_flows();
  config.scheme.scheduler = sched;
  config.scheme.manager = mgr;
  if (sched == SchedulerKind::kHybrid) config.scheme.groups = case1_groups();
  config.warmup = Time::seconds(2);
  config.duration = Time::seconds(8);
  config.seed = seed;
  return config;
}

TEST(ExperimentTest, ConservationPerFlow) {
  const auto result = run_experiment(
      base_config(SchedulerKind::kFifo, ManagerKind::kThreshold, 1.0));
  for (const auto& c : result.per_flow) {
    // Offered >= delivered + dropped (difference is still buffered).
    EXPECT_GE(c.offered_bytes + 600'000, c.delivered_bytes + c.dropped_bytes);
    EXPECT_GE(c.offered_packets, 0u);
  }
}

TEST(ExperimentTest, ThroughputNeverExceedsLinkRate) {
  for (auto mgr : {ManagerKind::kNone, ManagerKind::kThreshold, ManagerKind::kSharing}) {
    const auto result = run_experiment(base_config(SchedulerKind::kFifo, mgr, 1.0));
    EXPECT_LE(result.aggregate_throughput_mbps(), 48.0 * 1.001);
  }
}

TEST(ExperimentTest, NoBmFifoAchievesHighUtilization) {
  // Offered load > 100%: an unmanaged FIFO fills the link.
  const auto result =
      run_experiment(base_config(SchedulerKind::kFifo, ManagerKind::kNone, 0.5));
  EXPECT_GT(result.utilization(paper_link_rate()), 0.85);
}

TEST(ExperimentTest, NoBmStarvesConformantFlows) {
  // Without buffer management the aggressive flows inflict losses on the
  // conformant ones (Figure 2's no-BM curves).
  const auto result =
      run_experiment(base_config(SchedulerKind::kFifo, ManagerKind::kNone, 0.5));
  EXPECT_GT(result.loss_ratio(table1_conformant_flows()), 0.005);
}

TEST(ExperimentTest, ThresholdsProtectConformantFlowsFifo) {
  // With 3 MB of buffer (well above the eq. 9 requirement for u=0.68 and
  // sum sigma = 600 KB: 48/15.2 * 600K ~ 1.9 MB), conformant flows are
  // essentially lossless under FIFO + thresholds.
  const auto result =
      run_experiment(base_config(SchedulerKind::kFifo, ManagerKind::kThreshold, 3.0));
  EXPECT_LT(result.loss_ratio(table1_conformant_flows()), 1e-4);
}

TEST(ExperimentTest, ThresholdsProtectConformantFlowsWfq) {
  const auto result =
      run_experiment(base_config(SchedulerKind::kWfq, ManagerKind::kThreshold, 3.0));
  EXPECT_LT(result.loss_ratio(table1_conformant_flows()), 1e-4);
}

TEST(ExperimentTest, ConformantFlowsReceiveTheirReservation) {
  // Flows 0-5 are shaped to their token rates (2,2,2,8,8,8 Mb/s); with
  // protection they should deliver close to those rates.
  const auto result =
      run_experiment(base_config(SchedulerKind::kFifo, ManagerKind::kThreshold, 3.0));
  const double expected[] = {2.0, 2.0, 2.0, 8.0, 8.0, 8.0};
  for (FlowId f = 0; f < 6; ++f) {
    EXPECT_NEAR(result.flow_throughput_mbps(f), expected[f], expected[f] * 0.25)
        << "flow " << f;
  }
}

TEST(ExperimentTest, SharingImprovesUtilizationOverThresholds) {
  // Figure 4 vs Figure 1 at a small buffer: sharing admits traffic that
  // fixed partitioning refuses.  The headroom must be smaller than the
  // buffer, else every free byte is reserved headroom and sharing
  // degenerates to the fixed partition.
  const auto thresholds =
      run_experiment(base_config(SchedulerKind::kFifo, ManagerKind::kThreshold, 0.5));
  auto sharing_config = base_config(SchedulerKind::kFifo, ManagerKind::kSharing, 0.5);
  sharing_config.scheme.headroom = ByteSize::kilobytes(100.0);
  const auto sharing = run_experiment(sharing_config);
  EXPECT_GT(sharing.aggregate_throughput_mbps(),
            thresholds.aggregate_throughput_mbps());
}

TEST(ExperimentTest, HybridRunsAndProtects) {
  const auto result =
      run_experiment(base_config(SchedulerKind::kHybrid, ManagerKind::kSharing, 3.0));
  EXPECT_LT(result.loss_ratio(table1_conformant_flows()), 1e-3);
  EXPECT_GT(result.utilization(paper_link_rate()), 0.5);
}

TEST(ExperimentTest, HybridRequiresGroups) {
  auto config = base_config(SchedulerKind::kHybrid, ManagerKind::kSharing, 1.0);
  config.scheme.groups.clear();
  EXPECT_THROW((void)run_experiment(config), std::invalid_argument);
}

TEST(ExperimentTest, HybridRejectsNoManager) {
  auto config = base_config(SchedulerKind::kHybrid, ManagerKind::kNone, 1.0);
  EXPECT_THROW((void)run_experiment(config), std::invalid_argument);
}

/// The run harness refuses an interval it cannot measure before building
/// the model: a non-positive duration or a negative warmup.
TEST(ExperimentTest, RunDurationsAreValidated) {
  for (const auto& [warmup, duration] : std::vector<std::pair<Time, Time>>{
           {Time::seconds(1), Time::zero()},
           {Time::zero(), Time::seconds(-1)},
           {Time::seconds(-1), Time::seconds(1)}}) {
    auto config = base_config(SchedulerKind::kFifo, ManagerKind::kThreshold, 1.0);
    config.warmup = warmup;
    config.duration = duration;
    EXPECT_THROW((void)run_experiment(config), std::invalid_argument)
        << "warmup " << warmup.to_string() << ", duration " << duration.to_string();
    const CheckpointRequest roundtrip{
        .mode = CheckpointMode::kRoundtrip, .trigger = {}, .path = {}};
    EXPECT_THROW((void)run_experiment(config, roundtrip), std::invalid_argument);
  }
  // A zero warmup measures from the start.
  auto config = base_config(SchedulerKind::kFifo, ManagerKind::kThreshold, 1.0);
  config.warmup = Time::zero();
  config.duration = Time::milliseconds(200);
  EXPECT_GT(run_experiment(config).aggregate_throughput_mbps(), 0.0);
}

/// A time trigger before zero would move the clock backwards: the harness
/// refuses it before any event runs, on every path that snapshots.
TEST(ExperimentTest, NegativeCheckpointTimeIsRefused) {
  auto config = base_config(SchedulerKind::kFifo, ManagerKind::kThreshold, 1.0);
  config.warmup = Time::milliseconds(100);
  config.duration = Time::milliseconds(200);
  const CheckpointTrigger before_zero{.events = 0, .at = Time::seconds(-3)};
  EXPECT_THROW((void)experiment_harness(config).finish_with_checkpoint(before_zero),
               std::invalid_argument);
  const CheckpointRequest roundtrip{
      .mode = CheckpointMode::kRoundtrip, .trigger = before_zero, .path = {}};
  EXPECT_THROW((void)run_experiment(config, roundtrip), std::invalid_argument);
}

TEST(ExperimentTest, DeterministicForSameSeed) {
  const auto a = run_experiment(
      base_config(SchedulerKind::kFifo, ManagerKind::kThreshold, 1.0, 7));
  const auto b = run_experiment(
      base_config(SchedulerKind::kFifo, ManagerKind::kThreshold, 1.0, 7));
  for (std::size_t f = 0; f < a.per_flow.size(); ++f) {
    EXPECT_EQ(a.per_flow[f].delivered_bytes, b.per_flow[f].delivered_bytes);
    EXPECT_EQ(a.per_flow[f].dropped_bytes, b.per_flow[f].dropped_bytes);
  }
}

TEST(ExperimentTest, DifferentSeedsDiffer) {
  const auto a = run_experiment(
      base_config(SchedulerKind::kFifo, ManagerKind::kThreshold, 1.0, 7));
  const auto b = run_experiment(
      base_config(SchedulerKind::kFifo, ManagerKind::kThreshold, 1.0, 8));
  EXPECT_NE(a.per_flow[0].delivered_bytes, b.per_flow[0].delivered_bytes);
}

TEST(ExperimentTest, AqmBaselinesRunAndRankAsExpected) {
  // RED is flow-blind (conformant flows suffer); the reservation-aware
  // schemes protect them.  Qualitative ranking only.
  auto config = base_config(SchedulerKind::kFifo, ManagerKind::kRed, 1.0);
  const auto red = run_experiment(config);
  config.scheme.manager = ManagerKind::kFred;
  const auto fred = run_experiment(config);
  config.scheme.manager = ManagerKind::kDynamicThreshold;
  const auto dt = run_experiment(config);
  config.scheme.manager = ManagerKind::kThreshold;
  const auto thr = run_experiment(config);

  const auto conformant = table1_conformant_flows();
  EXPECT_GT(red.loss_ratio(conformant), thr.loss_ratio(conformant));
  EXPECT_GT(red.loss_ratio(conformant), fred.loss_ratio(conformant));
  EXPECT_LE(thr.loss_ratio(conformant), 1e-4);
  EXPECT_GT(dt.aggregate_throughput_mbps(), 30.0);
}

TEST(ExperimentTest, SelectiveSharingDefaultsToProfileClasses) {
  // Unregulated flows are blocked from the excess space: their goodput
  // under selective sharing must not exceed their goodput under
  // everyone-shares.
  auto config = base_config(SchedulerKind::kFifo, ManagerKind::kSharing, 1.0);
  config.scheme.headroom = ByteSize::kilobytes(300.0);
  const auto everyone = run_experiment(config);
  config.scheme.manager = ManagerKind::kSelectiveSharing;
  const auto selective = run_experiment(config);
  double everyone_aggr = 0.0, selective_aggr = 0.0;
  for (FlowId f = 6; f < 9; ++f) {
    everyone_aggr += everyone.flow_throughput_mbps(f);
    selective_aggr += selective.flow_throughput_mbps(f);
  }
  EXPECT_LE(selective_aggr, everyone_aggr + 0.5);
  EXPECT_LE(selective.loss_ratio(table1_conformant_flows()), 1e-4);
}

TEST(ExperimentTest, HybridRejectsAqmManagers) {
  for (auto mgr : {ManagerKind::kRed, ManagerKind::kFred, ManagerKind::kDynamicThreshold,
                   ManagerKind::kSelectiveSharing}) {
    auto config = base_config(SchedulerKind::kHybrid, mgr, 1.0);
    EXPECT_THROW((void)run_experiment(config), std::invalid_argument);
  }
}

TEST(ExperimentTest, Table2WorkloadRuns) {
  ExperimentConfig config;
  config.link_rate = paper_link_rate();
  config.buffer = ByteSize::megabytes(2.0);
  config.flows = table2_flows();
  config.scheme.scheduler = SchedulerKind::kHybrid;
  config.scheme.manager = ManagerKind::kSharing;
  config.scheme.groups = case2_groups();
  config.warmup = Time::seconds(2);
  config.duration = Time::seconds(6);
  const auto result = run_experiment(config);
  EXPECT_EQ(result.per_flow.size(), 30u);
  EXPECT_GT(result.aggregate_throughput_mbps(), 20.0);
}

TEST(SchemeNamesTest, ParseAndPrintOneVocabulary) {
  for (const auto kind : {SchedulerKind::kFifo, SchedulerKind::kWfq, SchedulerKind::kHybrid}) {
    EXPECT_EQ(parse_scheduler(to_string(kind)), kind);
  }
  for (const auto kind :
       {ManagerKind::kNone, ManagerKind::kThreshold, ManagerKind::kSharing,
        ManagerKind::kSelectiveSharing, ManagerKind::kDynamicThreshold, ManagerKind::kRed,
        ManagerKind::kFred}) {
    EXPECT_EQ(parse_manager(to_string(kind)), kind);
  }
  // Both CLIs' historical spellings of "no buffer management".
  EXPECT_EQ(parse_manager("none"), ManagerKind::kNone);
  EXPECT_EQ(parse_manager("taildrop"), ManagerKind::kNone);
  EXPECT_THROW(static_cast<void>(parse_scheduler("wqf")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(parse_manager("")), std::invalid_argument);
}

}  // namespace
}  // namespace bufq
