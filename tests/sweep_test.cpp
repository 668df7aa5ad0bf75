// Sweep-engine tests: the determinism contract (bit-identical CSV at any
// --jobs), replication seeding, summary math, and exception containment.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "expt/sweep.h"
#include "expt/workloads.h"
#include "stats/replication.h"
#include "util/csv.h"
#include "util/flags.h"

namespace bufq {
namespace {

/// A small but real Table-1 run: long enough to queue and drop packets,
/// short enough to keep the suite fast.
ExperimentConfig short_config(double buffer_mb) {
  ExperimentConfig config;
  config.link_rate = paper_link_rate();
  config.flows = table1_flows();
  config.buffer = ByteSize::megabytes(buffer_mb);
  config.scheme.scheduler = SchedulerKind::kFifo;
  config.scheme.manager = ManagerKind::kThreshold;
  config.warmup = Time::from_seconds(0.1);
  config.duration = Time::from_seconds(0.3);
  return config;
}

std::vector<SweepCase> small_grid() {
  std::vector<SweepCase> cases;
  for (double buffer_mb : {0.2, 0.5, 1.0}) {
    for (const char* scheme : {"fifo", "wfq"}) {
      SweepCase c;
      c.label = scheme;
      c.params = {{"buffer_mb", format_double(buffer_mb)}};
      c.config = short_config(buffer_mb);
      if (scheme[0] == 'w') c.config.scheme.scheduler = SchedulerKind::kWfq;
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

MetricExtractor throughput_and_loss() {
  return [conformant = table1_conformant_flows()](const ExperimentResult& r) {
    return std::map<std::string, double>{
        {"throughput_mbps", r.aggregate_throughput_mbps()},
        {"loss_ratio", r.loss_ratio(conformant)},
    };
  };
}

std::string csv_at_jobs(std::size_t jobs, std::size_t replications,
                        SeedMode mode = SeedMode::kIndependent) {
  SweepOptions options;
  options.jobs = jobs;
  options.replications = replications;
  options.base_seed = 42;
  options.seed_mode = mode;
  const SweepResult result = run_sweep(small_grid(), throughput_and_loss(), options);
  std::ostringstream out;
  write_sweep_csv(out, result);
  return out.str();
}

TEST(SweepEngineTest, CsvIsByteIdenticalAcrossJobCounts) {
  const std::string serial = csv_at_jobs(1, 3);
  EXPECT_EQ(serial, csv_at_jobs(2, 3));
  EXPECT_EQ(serial, csv_at_jobs(8, 3));
}

TEST(SweepEngineTest, SharedSeedModeCsvAlsoJobInvariant) {
  const std::string serial = csv_at_jobs(1, 2, SeedMode::kSharedAcrossCases);
  EXPECT_EQ(serial, csv_at_jobs(8, 2, SeedMode::kSharedAcrossCases));
}

TEST(SweepEngineTest, ReplicationsGetDistinctSeedsAndRuns) {
  SweepOptions options;
  options.jobs = 4;
  options.replications = 5;
  options.base_seed = 7;
  const SweepResult result = run_sweep(small_grid(), throughput_and_loss(), options);
  ASSERT_TRUE(result.ok());
  for (const SweepRow& row : result.rows) {
    const std::set<std::uint64_t> unique(row.seeds.begin(), row.seeds.end());
    EXPECT_EQ(unique.size(), 5u) << "replication seeds collided in case " << row.index;
    // Distinct seeds must actually produce distinct runs: at these buffer
    // sizes the throughput samples cannot all coincide bit-for-bit.
    const auto& samples = row.samples.at("throughput_mbps");
    ASSERT_EQ(samples.size(), 5u);
    const std::set<double> distinct(samples.begin(), samples.end());
    EXPECT_GT(distinct.size(), 1u) << "all replications identical in case " << row.index;
  }
}

TEST(SweepEngineTest, SeedModeControlsSeedSharing) {
  SweepOptions options;
  options.replications = 3;
  options.base_seed = 11;
  options.seed_mode = SeedMode::kSharedAcrossCases;
  const SweepResult shared = run_sweep(small_grid(), throughput_and_loss(), options);
  for (const SweepRow& row : shared.rows) {
    EXPECT_EQ(row.seeds, shared.rows.front().seeds)
        << "kSharedAcrossCases must reuse one seed set";
  }

  options.seed_mode = SeedMode::kIndependent;
  const SweepResult independent = run_sweep(small_grid(), throughput_and_loss(), options);
  std::set<std::uint64_t> all_seeds;
  for (const SweepRow& row : independent.rows) {
    all_seeds.insert(row.seeds.begin(), row.seeds.end());
  }
  EXPECT_EQ(all_seeds.size(), independent.rows.size() * 3)
      << "kIndependent must give every run its own seed";
}

TEST(SweepEngineTest, ConfigSeedFieldIsIgnored) {
  auto cases = small_grid();
  for (auto& c : cases) c.config.seed = 987654321;
  SweepOptions options;
  options.replications = 2;
  options.base_seed = 42;
  const SweepResult tagged = run_sweep(std::move(cases), throughput_and_loss(), options);
  const SweepResult plain = run_sweep(small_grid(), throughput_and_loss(), options);
  std::ostringstream a, b;
  write_sweep_csv(a, tagged);
  write_sweep_csv(b, plain);
  EXPECT_EQ(a.str(), b.str());
}

TEST(SweepEngineTest, SummaryMatchesManualComputation) {
  SweepOptions options;
  options.replications = 4;
  options.base_seed = 3;
  const SweepResult result = run_sweep(small_grid(), throughput_and_loss(), options);
  ASSERT_TRUE(result.ok());
  for (const SweepRow& row : result.rows) {
    const auto& samples = row.samples.at("throughput_mbps");
    const Summary& m = row.metrics.at("throughput_mbps");
    const Summary expected = summarize(samples);
    EXPECT_DOUBLE_EQ(m.mean, expected.mean);
    EXPECT_DOUBLE_EQ(m.ci95, expected.ci95);
    EXPECT_EQ(m.n, samples.size());
    double ss = 0.0;
    for (double x : samples) ss += (x - expected.mean) * (x - expected.mean);
    EXPECT_DOUBLE_EQ(m.stddev, std::sqrt(ss / 3.0));
  }
}

TEST(SweepEngineTest, ExceptionInOneRunIsContainedAndPoolDrains) {
  auto cases = small_grid();
  // A hybrid scheme without a grouping makes run_experiment throw
  // std::invalid_argument for every replication of this case.
  SweepCase bad;
  bad.label = "bad-hybrid";
  bad.params = {{"buffer_mb", "0.5"}};
  bad.config = short_config(0.5);
  bad.config.scheme.scheduler = SchedulerKind::kHybrid;
  bad.config.scheme.groups.clear();
  cases.insert(cases.begin() + 2, std::move(bad));

  SweepOptions options;
  options.jobs = 8;
  options.replications = 3;
  const SweepResult result = run_sweep(std::move(cases), throughput_and_loss(), options);

  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.rows.size(), 7u);  // 6 good + 1 bad, all reduced
  for (const SweepRow& row : result.rows) {
    if (row.label == "bad-hybrid") {
      EXPECT_FALSE(row.error.empty());
      EXPECT_TRUE(row.samples.empty());
    } else {
      EXPECT_TRUE(row.error.empty()) << row.error;
      EXPECT_EQ(row.samples.at("throughput_mbps").size(), 3u);
    }
  }

  // The CSV still serializes, with the error in the last column.
  std::ostringstream out;
  write_sweep_csv(out, result);
  EXPECT_NE(out.str().find("bad-hybrid"), std::string::npos);
  EXPECT_NE(out.str().find("grouping"), std::string::npos);
}

TEST(SweepEngineTest, InconsistentMetricSetIsARowError) {
  // Every replication of a case must report the same metric names; a
  // metric only some replications produce cannot be summarized honestly.
  SweepCase c;
  c.label = "ragged";
  c.runner = [](std::uint64_t) { return ExperimentResult{}; };
  SweepOptions options;
  options.jobs = 1;  // serial, so the call counter below is race-free
  options.replications = 3;
  int calls = 0;
  const SweepResult result = run_sweep(
      {std::move(c)},
      [&calls](const ExperimentResult&) {
        std::map<std::string, double> m{{"always", 1.0}};
        if (calls++ == 0) m["sometimes"] = 1.0;
        return m;
      },
      options);
  EXPECT_EQ(calls, 3);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.rows.front().error.find("metric 'sometimes' missing from some replications"),
            std::string::npos)
      << result.rows.front().error;
}

TEST(SweepEngineTest, CheckpointFlagsParseIntoOnePolicy) {
  const char* plain[] = {"prog"};
  EXPECT_EQ(parse_checkpoint_request(Flags{1, plain}).mode, CheckpointMode::kOff);

  const char* write[] = {"prog", "--checkpoint-out=dir", "--checkpoint-events=99"};
  const CheckpointRequest w = parse_checkpoint_request(Flags{3, write});
  EXPECT_EQ(w.mode, CheckpointMode::kWrite);
  EXPECT_EQ(w.path, "dir");
  EXPECT_EQ(w.trigger.events, 99u);

  const char* read[] = {"prog", "--checkpoint-in=dir"};
  const CheckpointRequest r = parse_checkpoint_request(Flags{2, read});
  EXPECT_EQ(r.mode, CheckpointMode::kRead);
  EXPECT_EQ(r.path, "dir");

  const char* roundtrip[] = {"prog", "--checkpoint-roundtrip", "--checkpoint-at=0.5"};
  const CheckpointRequest rt = parse_checkpoint_request(Flags{3, roundtrip});
  EXPECT_EQ(rt.mode, CheckpointMode::kRoundtrip);
  EXPECT_EQ(rt.trigger.at, Time::from_seconds(0.5));

  const char* both[] = {"prog", "--checkpoint-out=a", "--checkpoint-roundtrip"};
  EXPECT_THROW((void)parse_checkpoint_request(Flags{3, both}), std::invalid_argument);
}

/// The message of the std::invalid_argument parse_checkpoint_request
/// throws for `argv`, or "" when it parses.
template <std::size_t N>
std::string checkpoint_flag_error(const char* (&argv)[N]) {
  try {
    (void)parse_checkpoint_request(Flags{static_cast<int>(N), argv});
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// A trigger only means something to a mode that snapshots: without
// --checkpoint-out or --checkpoint-roundtrip it would be dropped silently.
TEST(SweepEngineTest, CheckpointTriggerFlagsNeedASnapshottingMode) {
  const std::string need = "need --checkpoint-out or --checkpoint-roundtrip";
  const char* events[] = {"prog", "--checkpoint-events=100"};
  EXPECT_NE(checkpoint_flag_error(events).find(need), std::string::npos);
  const char* at[] = {"prog", "--checkpoint-at=0.5"};
  EXPECT_NE(checkpoint_flag_error(at).find(need), std::string::npos);
  const char* read_events[] = {"prog", "--checkpoint-in=dir", "--checkpoint-events=100"};
  EXPECT_NE(checkpoint_flag_error(read_events).find(need), std::string::npos);
  const char* read_at[] = {"prog", "--checkpoint-in=dir", "--checkpoint-at=0.5"};
  EXPECT_NE(checkpoint_flag_error(read_at).find(need), std::string::npos);
}

TEST(SweepEngineTest, NegativeCheckpointTriggersAreRefused) {
  const char* at[] = {"prog", "--checkpoint-roundtrip", "--checkpoint-at=-3"};
  EXPECT_NE(checkpoint_flag_error(at).find("checkpoint time trigger must not be negative"),
            std::string::npos);
  const char* events[] = {"prog", "--checkpoint-out=dir", "--checkpoint-events=-5"};
  EXPECT_NE(checkpoint_flag_error(events).find("--checkpoint-events must not be negative"),
            std::string::npos);
}

TEST(SweepEngineTest, RowsComeBackInInputOrderWithParamEcho) {
  SweepOptions options;
  options.jobs = 8;
  const SweepResult result = run_sweep(small_grid(), throughput_and_loss(), options);
  ASSERT_EQ(result.rows.size(), 6u);
  const auto reference = small_grid();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(result.rows[i].index, i);
    EXPECT_EQ(result.rows[i].label, reference[i].label);
    EXPECT_EQ(result.rows[i].params, reference[i].params);
  }
}

}  // namespace
}  // namespace bufq
