// Differential replay property test: for every figure of the paper, a
// sweep whose runs are snapshotted mid-flight and restored into a fresh
// pipeline must serialize to the byte-identical CSV of an uninterrupted
// sweep — at any worker count.  The checkpoint trigger is a randomized
// event count drawn from a fixed-seed test Rng (never wall clock), so the
// snapshot lands somewhere different in every scenario while the whole
// suite stays reproducible.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "expt/figures.h"
#include "expt/sweep.h"
#include "fabric/scenario.h"
#include "util/rng.h"

namespace bufq {
namespace {

/// Per-test trigger randomization off a fixed root: each test derives its
/// own stream from a distinct index, so triggers are reproducible under
/// any --gtest_filter / shuffle combination (no shared mutable state).
Rng trigger_rng(std::uint64_t index) {
  return Rng{SeedSequence{0xB0F9C8EC04151998ull}.derive(index)};
}

FigureParams reduced_params() {
  FigureParams params;
  params.warmup = Time::from_seconds(0.2);
  params.duration = Time::from_seconds(0.5);
  return params;
}

std::string sweep_csv(std::vector<SweepCase> cases, const MetricExtractor& extract,
                      const SweepOptions& options) {
  std::ostringstream out;
  write_sweep_csv(out, run_sweep(std::move(cases), extract, options));
  return out.str();
}

SweepOptions base_options(std::size_t jobs) {
  SweepOptions options;
  options.jobs = jobs;
  options.replications = 1;
  options.base_seed = 20260808;
  options.seed_mode = SeedMode::kSharedAcrossCases;
  return options;
}

class FigureReplayTest : public testing::TestWithParam<int> {};

TEST_P(FigureReplayTest, RoundtripSweepCsvIsByteIdentical) {
  const int figure = GetParam();
  const std::vector<double> buffers{figure_default_buffers_mb(figure).front()};
  FigureParams params = reduced_params();
  params.buffers_mb = buffers;

  const FigureSweep plain_fig = make_figure_sweep(figure, params);
  const std::string plain =
      sweep_csv(make_figure_sweep(figure, params).cases, plain_fig.extract, base_options(2));

  SweepOptions roundtrip = base_options(2);
  roundtrip.checkpoint.mode = CheckpointMode::kRoundtrip;
  roundtrip.checkpoint.trigger.events =
      1'000 + trigger_rng(static_cast<std::uint64_t>(figure)).uniform_u64(49'000);
  const std::string resumed =
      sweep_csv(make_figure_sweep(figure, params).cases, plain_fig.extract, roundtrip);

  EXPECT_EQ(plain, resumed) << "figure " << figure << " diverged after restore (trigger at "
                            << roundtrip.checkpoint.trigger.events << " events)";
}

INSTANTIATE_TEST_SUITE_P(AllFigures, FigureReplayTest,
                         testing::Range(kFirstFigure, kLastFigure + 1));

TEST(CheckpointReplayTest, RoundtripCsvIndependentOfJobs) {
  // The restored-run CSV must hold the sweep engine's bit-identical
  // contract across worker counts, exactly like plain runs do.
  FigureParams params = reduced_params();
  params.buffers_mb = {figure_default_buffers_mb(1).front()};
  const FigureSweep fig = make_figure_sweep(1, params);
  const std::uint64_t trigger = 5'000 + trigger_rng(100).uniform_u64(20'000);

  std::vector<std::string> csvs;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SweepOptions options = base_options(jobs);
    options.checkpoint.mode = CheckpointMode::kRoundtrip;
    options.checkpoint.trigger.events = trigger;
    csvs.push_back(sweep_csv(make_figure_sweep(1, params).cases, fig.extract, options));
  }
  EXPECT_EQ(csvs[0], csvs[1]);
  EXPECT_EQ(csvs[0], csvs[2]);
}

TEST(CheckpointReplayTest, WriteThenReadMatchesWriteResult) {
  FigureParams params = reduced_params();
  params.buffers_mb = {figure_default_buffers_mb(2).front()};
  const FigureSweep fig = make_figure_sweep(2, params);

  SweepOptions write = base_options(2);
  write.checkpoint.mode = CheckpointMode::kWrite;
  write.checkpoint.path = testing::TempDir();
  write.checkpoint.trigger.events = 2'000 + trigger_rng(101).uniform_u64(10'000);
  const std::string produced =
      sweep_csv(make_figure_sweep(2, params).cases, fig.extract, write);

  SweepOptions read = write;
  read.checkpoint.mode = CheckpointMode::kRead;
  const std::string consumed =
      sweep_csv(make_figure_sweep(2, params).cases, fig.extract, read);

  EXPECT_EQ(produced, consumed);
}

TEST(CheckpointReplayTest, CustomRunnerWithoutCheckpointSupportFailsLoudly) {
  SweepCase c;
  c.label = "opaque";
  c.runner = [](std::uint64_t) { return ExperimentResult{}; };
  SweepOptions options = base_options(1);
  options.checkpoint.mode = CheckpointMode::kRoundtrip;
  const SweepResult result = run_sweep(
      {std::move(c)}, [](const ExperimentResult&) { return std::map<std::string, double>{}; },
      options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.rows.front().error.find("without checkpoint support"), std::string::npos);
}

class FabricReplayTest : public testing::TestWithParam<fabric::FabricTopologyKind> {
 protected:
  static fabric::FabricConfig config() {
    fabric::FabricConfig c;
    c.topology = GetParam();
    c.size = c.topology == fabric::FabricTopologyKind::kFatTree ? 4 : 3;
    c.warmup = Time::from_seconds(0.3);
    c.duration = Time::from_seconds(0.7);
    c.seed = 11;
    return c;
  }

  /// Checkpoints at `trigger`, resumes, and requires the checkpointing
  /// run, the resumed run and a plain run to agree exactly.  Returns the
  /// checkpointing run.
  static CheckpointedRun expect_replay_matches_plain_run(const CheckpointTrigger& trigger) {
    const fabric::FabricConfig c = config();
    const fabric::FabricScenario sc = fabric::build_fabric_scenario(c);
    const ExperimentResult plain = fabric::run_fabric_experiment(c);
    CheckpointedRun run = fabric::fabric_harness(c, sc).finish_with_checkpoint(trigger);
    const ExperimentResult resumed = fabric::fabric_harness(c, sc).resume(run.checkpoint);
    expect_same_result(plain, run.result);
    expect_same_result(plain, resumed);
    return run;
  }

  static void expect_same_result(const ExperimentResult& a, const ExperimentResult& b) {
    ASSERT_EQ(a.per_flow.size(), b.per_flow.size());
    for (std::size_t f = 0; f < a.per_flow.size(); ++f) {
      EXPECT_EQ(a.per_flow[f].offered_bytes, b.per_flow[f].offered_bytes) << "flow " << f;
      EXPECT_EQ(a.per_flow[f].delivered_bytes, b.per_flow[f].delivered_bytes) << "flow " << f;
      EXPECT_EQ(a.per_flow[f].dropped_bytes, b.per_flow[f].dropped_bytes) << "flow " << f;
      EXPECT_EQ(a.per_flow[f].offered_packets, b.per_flow[f].offered_packets) << "flow " << f;
      EXPECT_EQ(a.per_flow[f].delivered_packets, b.per_flow[f].delivered_packets)
          << "flow " << f;
      EXPECT_EQ(a.per_flow[f].dropped_packets, b.per_flow[f].dropped_packets) << "flow " << f;
    }
    ASSERT_EQ(a.delays.size(), b.delays.size());
    for (std::size_t f = 0; f < a.delays.size(); ++f) {
      EXPECT_EQ(a.delays[f].mean_s, b.delays[f].mean_s) << "flow " << f;
      EXPECT_EQ(a.delays[f].max_s, b.delays[f].max_s) << "flow " << f;
      EXPECT_EQ(a.delays[f].p50_s, b.delays[f].p50_s) << "flow " << f;
      EXPECT_EQ(a.delays[f].p99_s, b.delays[f].p99_s) << "flow " << f;
      EXPECT_EQ(a.delays[f].packets, b.delays[f].packets) << "flow " << f;
    }
    EXPECT_EQ(a.interval, b.interval);
    EXPECT_EQ(a.checks_run, b.checks_run);
    EXPECT_EQ(a.check_violations, b.check_violations);
    EXPECT_EQ(a.metrics.counters.at("sim.events"), b.metrics.counters.at("sim.events"));
    EXPECT_EQ(a.metrics.gauges.at("fabric.premium_delay_bound_us").last,
              b.metrics.gauges.at("fabric.premium_delay_bound_us").last);
  }
};

TEST_P(FabricReplayTest, ResumeMatchesUninterruptedRun) {
  CheckpointTrigger trigger;
  trigger.events =
      1'000 + trigger_rng(200 + static_cast<std::uint64_t>(GetParam())).uniform_u64(30'000);
  EXPECT_EQ(expect_replay_matches_plain_run(trigger).events_at_checkpoint, trigger.events);
}

TEST_P(FabricReplayTest, TimeTriggerResumeMatchesPlainRun) {
  CheckpointTrigger trigger;
  trigger.at = Time::from_seconds(0.55);
  EXPECT_EQ(expect_replay_matches_plain_run(trigger).time_at_checkpoint, trigger.at);
}

TEST_P(FabricReplayTest, DefaultTriggerSnapshotsAtEndOfWarmup) {
  const CheckpointedRun run = expect_replay_matches_plain_run(CheckpointTrigger{});
  EXPECT_EQ(run.time_at_checkpoint, config().warmup);
  EXPECT_GT(run.events_at_checkpoint, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, FabricReplayTest,
                         testing::Values(fabric::FabricTopologyKind::kParkingLot,
                                         fabric::FabricTopologyKind::kLeafSpine,
                                         fabric::FabricTopologyKind::kFatTree,
                                         fabric::FabricTopologyKind::kWanRing));

}  // namespace
}  // namespace bufq
