// Statistical properties of the replication machinery: confidence
// intervals shrink like 1/sqrt(k), and the replicated mean respects the
// paper's closed-form Proposition 2 guarantee.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/analysis.h"
#include "expt/sweep.h"
#include "expt/workloads.h"

namespace bufq {
namespace {

/// Figure-2 grid point with visible conformant loss: FIFO+thresholds at a
/// buffer well below the Proposition 2 minimum.
ExperimentConfig lossy_config() {
  ExperimentConfig config;
  config.link_rate = paper_link_rate();
  config.flows = table1_flows();
  config.buffer = ByteSize::megabytes(0.15);
  config.scheme.scheduler = SchedulerKind::kFifo;
  config.scheme.manager = ManagerKind::kThreshold;
  config.warmup = Time::from_seconds(0.2);
  config.duration = Time::from_seconds(1.0);
  return config;
}

MetricExtractor loss_extractor() {
  return [conformant = table1_conformant_flows()](const ExperimentResult& r) {
    return std::map<std::string, double>{{"loss_ratio", r.loss_ratio(conformant)}};
  };
}

Summary replicated_loss(std::size_t k) {
  SweepCase c;
  c.label = "fig2-point";
  c.config = lossy_config();
  SweepOptions options;
  options.jobs = 4;
  options.replications = k;
  options.base_seed = 1;
  const SweepResult result = run_sweep({c}, loss_extractor(), options);
  return result.rows.front().metrics.at("loss_ratio");
}

TEST(ReplicationPropertyTest, ConfidenceIntervalShrinksWithReplications) {
  const Summary at4 = replicated_loss(4);
  const Summary at16 = replicated_loss(16);

  ASSERT_GT(at4.ci95, 0.0) << "no loss variance at k=4; the point is not stochastic enough";
  ASSERT_GT(at16.ci95, 0.0);

  // Theory: half-width ~ t_{k-1} * s / sqrt(k), so going 4 -> 16
  // replications shrinks it by ~(2.131/4)/(3.182/2) = 0.34.  The sample
  // stddev itself fluctuates between the two estimates, so only assert a
  // loose version of the 1/sqrt(k) law.
  const double ratio = at16.ci95 / at4.ci95;
  EXPECT_LT(ratio, 0.9) << "CI did not shrink: " << at4.ci95 << " -> " << at16.ci95;
  EXPECT_GT(ratio, 0.05) << "CI shrank implausibly fast: " << at4.ci95 << " -> " << at16.ci95;

  // The two means estimate the same quantity; they must agree within the
  // wider of the two intervals (generous: within 2x).
  EXPECT_NEAR(at4.mean, at16.mean, 2.0 * at4.ci95);
}

TEST(ReplicationPropertyTest, ReplicatedMeanRespectsProposition2Bound) {
  // At a buffer above the Proposition 2 / equation 9 minimum, threshold
  // buffer management guarantees zero conformant loss in the fluid model;
  // the packetized simulation must agree to within a whisker across a
  // replicated run.
  const auto specs = flow_specs(table1_flows());
  const auto min_buffer = fifo_min_buffer_bytes(specs, paper_link_rate());
  ASSERT_TRUE(min_buffer.has_value());

  SweepCase c;
  c.label = "prop2-point";
  c.config = lossy_config();
  c.config.buffer = ByteSize::bytes(static_cast<std::int64_t>(*min_buffer * 1.1));

  SweepOptions options;
  options.jobs = 4;
  options.replications = 6;
  options.base_seed = 5;
  const SweepResult result = run_sweep({c}, loss_extractor(), options);
  ASSERT_TRUE(result.ok());

  const Summary& loss = result.rows.front().metrics.at("loss_ratio");
  EXPECT_LE(loss.mean, 1e-3) << "conformant loss " << loss.mean
                             << " above the Proposition 2 closed-form bound of 0";
  for (double sample : result.rows.front().samples.at("loss_ratio")) {
    EXPECT_LE(sample, 1e-3);
  }
}

}  // namespace
}  // namespace bufq
