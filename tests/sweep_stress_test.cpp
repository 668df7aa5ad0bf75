// Fuzz-style stress: thousands of short randomized experiments — every
// valid scheduler x manager combination, random buffers/headrooms/
// groupings — pushed through the work-stealing pool at once.  The suite
// asserts zero invariant violations (meaningful under -DBUFQ_CHECKS=ON,
// which the sanitizer CI jobs enable) and that no run throws.
//
// BUFQ_STRESS_RUNS scales the run count: default 300 keeps the tier-1
// suite quick; CI's ASan job raises it to 10000.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "expt/sweep.h"
#include "expt/workloads.h"
#include "util/rng.h"

namespace bufq {
namespace {

std::size_t stress_runs() {
  if (const char* env = std::getenv("BUFQ_STRESS_RUNS")) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 300;
}

/// Partition the 9 Table-1 flows into 2-4 contiguous non-empty groups.
std::vector<std::vector<FlowId>> random_grouping(Rng& rng) {
  const auto k = 2 + rng.uniform_u64(3);  // 2..4 groups
  std::vector<std::vector<FlowId>> groups(k);
  for (FlowId f = 0; f < 9; ++f) {
    groups[static_cast<std::size_t>(f) % k].push_back(f);
  }
  return groups;
}

SweepCase random_case(Rng& rng, std::size_t index) {
  static constexpr SchedulerKind kSchedulers[] = {SchedulerKind::kFifo, SchedulerKind::kWfq,
                                                  SchedulerKind::kHybrid};
  static constexpr ManagerKind kAllManagers[] = {
      ManagerKind::kNone,           ManagerKind::kThreshold,
      ManagerKind::kSharing,        ManagerKind::kSelectiveSharing,
      ManagerKind::kDynamicThreshold, ManagerKind::kRed,
      ManagerKind::kFred};
  static constexpr ManagerKind kHybridManagers[] = {ManagerKind::kThreshold,
                                                    ManagerKind::kSharing};

  SweepCase c;
  c.label = "stress-" + std::to_string(index);
  c.config.link_rate = paper_link_rate();
  c.config.flows = table1_flows();
  // Short but real: enough packets to fill, drop, and drain queues.
  c.config.warmup = Time::from_seconds(0.02);
  c.config.duration = Time::from_seconds(0.08);
  c.config.buffer = ByteSize::kilobytes(rng.uniform(30.0, 2000.0));

  const auto scheduler = kSchedulers[rng.uniform_u64(3)];
  c.config.scheme.scheduler = scheduler;
  if (scheduler == SchedulerKind::kHybrid) {
    c.config.scheme.manager = kHybridManagers[rng.uniform_u64(2)];
    c.config.scheme.groups = random_grouping(rng);
  } else {
    c.config.scheme.manager = kAllManagers[rng.uniform_u64(7)];
  }
  c.config.scheme.headroom =
      ByteSize::bytes(static_cast<std::int64_t>(rng.uniform(0.0, 1.0) *
                                                static_cast<double>(c.config.buffer.count())));
  c.config.scheme.dt_alpha = rng.uniform(0.25, 4.0);
  if (rng.bernoulli(0.2)) {
    c.config.burst_distribution = BurstDistribution::kPareto;
  } else if (rng.bernoulli(0.2)) {
    c.config.burst_distribution = BurstDistribution::kDeterministic;
  }
  return c;
}

TEST(SweepStressTest, RandomizedSchemesRunCleanUnderThePool) {
  const std::size_t runs = stress_runs();
  Rng rng{20260805};
  std::vector<SweepCase> cases;
  cases.reserve(runs);
  for (std::size_t i = 0; i < runs; ++i) cases.push_back(random_case(rng, i));

  SweepOptions options;
  options.jobs = 8;
  options.replications = 1;
  options.base_seed = 99;
  const SweepResult result = run_sweep(
      std::move(cases),
      [](const ExperimentResult& r) {
        return std::map<std::string, double>{
            {"throughput_mbps", r.aggregate_throughput_mbps()}};
      },
      options);

  ASSERT_EQ(result.rows.size(), runs);
  std::uint64_t violations = 0;
  for (const SweepRow& row : result.rows) {
    EXPECT_TRUE(row.error.empty()) << row.label << ": " << row.error;
    violations += row.check_violations;
  }
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(violations, 0u) << "invariant violations under randomized schemes";
}

}  // namespace
}  // namespace bufq
