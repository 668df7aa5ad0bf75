// End-to-end property tests for the churn pipeline: flows admitted by the
// paper's tests and shaped to their declared envelopes must never lose a
// packet, across seeds, even while the admission controller is blocking a
// large fraction of arrivals.
#include "expt/churn_experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "check/invariants.h"
#include "invariant_audit.h"

namespace bufq {
namespace {

TrafficProfile regulated_profile(double token_mbps, double bucket_kb) {
  return TrafficProfile{.peak_rate = Rate::megabits_per_second(8.0 * token_mbps),
                        .avg_rate = Rate::megabits_per_second(token_mbps),
                        .bucket = ByteSize::kilobytes(bucket_kb),
                        .token_rate = Rate::megabits_per_second(token_mbps),
                        .mean_burst = ByteSize::kilobytes(bucket_kb),
                        .regulated = true};
}

ChurnConfig base_config(ChurnScheme scheme, std::uint64_t seed) {
  return ChurnConfig{
      .link_rate = Rate::megabits_per_second(48.0),
      .buffer = ByteSize::megabytes(1.0),
      .scheme = scheme,
      .headroom = ByteSize::kilobytes(100.0),
      .max_flows = 128,
      .churn = {.arrival_rate_hz = 120.0,
                .mean_holding = Time::milliseconds(400),
                .mix = {{.profile = regulated_profile(1.0, 16.0), .weight = 3.0},
                        {.profile = regulated_profile(4.0, 64.0), .weight = 1.0}}},
      .warmup = Time::seconds(1),
      .duration = Time::seconds(6),
      .seed = seed,
  };
}

TEST(ChurnTest, AdmittedConformantFlowsNeverDropUnderThresholds) {
  // The headline guarantee (Props 1/2 + eq. 10): whatever the admission
  // controller lets in must be served losslessly, across seeds.  The
  // offered load is ~2x what the buffer can cover, so the controller is
  // actively blocking while admitted flows keep their guarantee.
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const ChurnResult r = run_churn_experiment(base_config(ChurnScheme::kFifoThreshold, seed));
    EXPECT_GT(r.counters.admitted, 0u) << "seed " << seed;
    EXPECT_GT(r.counters.rejected_buffer, 0u) << "seed " << seed;
    EXPECT_EQ(r.counters.conformant_drops, 0u) << "seed " << seed;
  }
}

TEST(ChurnTest, AdmittedConformantFlowsNeverDropUnderSharing) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const ChurnResult r = run_churn_experiment(base_config(ChurnScheme::kFifoSharing, seed));
    EXPECT_GT(r.counters.admitted, 0u) << "seed " << seed;
    EXPECT_EQ(r.counters.conformant_drops, 0u) << "seed " << seed;
  }
}

TEST(ChurnTest, OversubscriptionIsBlockedNotViolated) {
  // A buffer far too small for the offered load: the controller must
  // convert the overload into blocking, never into guarantee violations.
  auto config = base_config(ChurnScheme::kFifoThreshold, 9);
  config.buffer = ByteSize::kilobytes(150.0);
  const ChurnResult r = run_churn_experiment(config);
  EXPECT_GT(r.blocking_probability, 0.5);
  EXPECT_GT(r.counters.admitted, 0u);
  EXPECT_EQ(r.counters.conformant_drops, 0u);
}

TEST(ChurnTest, CountersAreConserved) {
  const ChurnResult r = run_churn_experiment(base_config(ChurnScheme::kFifoThreshold, 5));
  EXPECT_EQ(r.counters.arrivals, r.counters.admitted + r.counters.rejected());
  EXPECT_LE(r.counters.reaped, r.counters.departures);
  EXPECT_LE(r.counters.departures, r.counters.admitted);
  EXPECT_EQ(r.active_at_end,
            static_cast<std::size_t>(r.counters.admitted - r.counters.reaped));
}

TEST(ChurnTest, SameSeedIsBitIdentical) {
  const ChurnResult a = run_churn_experiment(base_config(ChurnScheme::kFifoThreshold, 11));
  const ChurnResult b = run_churn_experiment(base_config(ChurnScheme::kFifoThreshold, 11));
  EXPECT_EQ(a.counters.arrivals, b.counters.arrivals);
  EXPECT_EQ(a.counters.admitted, b.counters.admitted);
  EXPECT_EQ(a.counters.reaped, b.counters.reaped);
  EXPECT_EQ(a.traffic.delivered_bytes, b.traffic.delivered_bytes);
  EXPECT_EQ(a.traffic.dropped_packets, b.traffic.dropped_packets);
  EXPECT_DOUBLE_EQ(a.mean_active_flows, b.mean_active_flows);

  const ChurnResult c = run_churn_experiment(base_config(ChurnScheme::kFifoThreshold, 12));
  EXPECT_NE(a.counters.arrivals, c.counters.arrivals);
}

TEST(ChurnTest, WfqChurnAlsoHonorsItsAllocations) {
  // Under WFQ each admitted flow owns a sigma-sized allocation (eq. 6);
  // shaped flows must fit inside it under churn too.
  const ChurnResult r = run_churn_experiment(base_config(ChurnScheme::kWfq, 3));
  EXPECT_GT(r.counters.admitted, 0u);
  EXPECT_EQ(r.counters.conformant_drops, 0u);
}

TEST(ChurnTest, ResultCarriesItsOwnRunsAudit) {
  if (!BUFQ_CHECKS_ENABLED) GTEST_SKIP() << "the churn audit needs -DBUFQ_CHECKS=ON";
  // Each run audits under its own checker, which folds into the enclosing
  // one when the run ends: the result counts that run's checks, no more.
  check::ScopedChecker enclosing;
  const ChurnConfig config = base_config(ChurnScheme::kWfq, 2);
  const ChurnResult first = run_churn_experiment(config);
  EXPECT_GT(first.checks_run, 0u);
  EXPECT_EQ(first.check_violations, 0u);
  EXPECT_EQ(enclosing.checker().checks_run(), first.checks_run);
  const ChurnResult second = run_churn_experiment(config);
  EXPECT_EQ(second.checks_run, first.checks_run);
  EXPECT_EQ(enclosing.checker().checks_run(), 2 * first.checks_run);
}

TEST(ChurnTest, MalformedConfigsAreRefused) {
  auto no_slots = base_config(ChurnScheme::kFifoThreshold, 1);
  no_slots.max_flows = 0;
  EXPECT_THROW(static_cast<void>(run_churn_experiment(no_slots)), std::invalid_argument);
  auto no_mix = base_config(ChurnScheme::kFifoThreshold, 1);
  no_mix.churn.mix.clear();
  EXPECT_THROW(static_cast<void>(run_churn_experiment(no_mix)), std::invalid_argument);
  auto no_time = base_config(ChurnScheme::kWfq, 1);
  no_time.duration = Time::zero();
  EXPECT_THROW(static_cast<void>(run_churn_experiment(no_time)), std::invalid_argument);
  // The run harness refuses the interval, after churn's own checks.
  auto negative = base_config(ChurnScheme::kFifoSharing, 1);
  negative.duration = Time::seconds(-1);
  EXPECT_THROW(static_cast<void>(run_churn_experiment(negative)), std::invalid_argument);
  auto early = base_config(ChurnScheme::kFifoThreshold, 1);
  early.warmup = Time::seconds(-1);
  EXPECT_THROW(static_cast<void>(run_churn_experiment(early)), std::invalid_argument);
}

TEST(ChurnTest, TrajectoryIsPinnedPerScheme) {
  // Exact counters of one seed per scheme, with an unregulated flow in
  // the mix that bursts past its declared envelope.  Any change to
  // admission, the Prop-2 thresholds or the per-packet managers that
  // moves a churn trajectory fails here.
  struct Pinned {
    ChurnScheme scheme;
    std::uint64_t arrivals;
    std::uint64_t admitted;
    std::uint64_t rejected_buffer;
    std::uint64_t rejected_bandwidth;
    std::uint64_t reaped;
    std::uint64_t conformant_drops;
    std::uint64_t nonconformant_drops;
    std::int64_t delivered_bytes;
    std::uint64_t dropped_packets;
  };
  const Pinned expected[] = {
      {ChurnScheme::kFifoThreshold, 833, 319, 514, 0, 292, 0, 1354, 23'506'500, 1354},
      {ChurnScheme::kFifoSharing, 847, 301, 546, 0, 276, 0, 0, 19'604'000, 0},
      {ChurnScheme::kWfq, 855, 500, 0, 355, 461, 0, 9022, 31'983'000, 8229},
  };
  const TrafficProfile aggressive{.peak_rate = Rate::megabits_per_second(16.0),
                                  .avg_rate = Rate::megabits_per_second(4.0),
                                  .bucket = ByteSize::kilobytes(16.0),
                                  .token_rate = Rate::megabits_per_second(1.0),
                                  .mean_burst = ByteSize::kilobytes(64.0),
                                  .regulated = false};
  for (const Pinned& want : expected) {
    auto config = base_config(want.scheme, 7);
    config.churn.mix.push_back({.profile = aggressive, .weight = 1.0});
    const ChurnResult r = run_churn_experiment(config);
    const auto scheme = static_cast<int>(want.scheme);
    EXPECT_EQ(r.counters.arrivals, want.arrivals) << "scheme " << scheme;
    EXPECT_EQ(r.counters.admitted, want.admitted) << "scheme " << scheme;
    EXPECT_EQ(r.counters.rejected_buffer, want.rejected_buffer) << "scheme " << scheme;
    EXPECT_EQ(r.counters.rejected_bandwidth, want.rejected_bandwidth) << "scheme " << scheme;
    EXPECT_EQ(r.counters.reaped, want.reaped) << "scheme " << scheme;
    EXPECT_EQ(r.counters.conformant_drops, want.conformant_drops) << "scheme " << scheme;
    EXPECT_EQ(r.counters.nonconformant_drops, want.nonconformant_drops) << "scheme " << scheme;
    EXPECT_EQ(r.traffic.delivered_bytes, want.delivered_bytes) << "scheme " << scheme;
    EXPECT_EQ(r.traffic.dropped_packets, want.dropped_packets) << "scheme " << scheme;
  }
}

/// The FlowTable's capacity caps concurrent flows whatever max_concurrent
/// says: arrivals beyond it are refused for capacity, never squeezed in.
TEST(ChurnTest, DriverNeverOutgrowsItsFlowTable) {
  constexpr std::size_t kSlots = 4;
  Simulator sim;
  admission::AdmissionController controller{{.scheme = admission::Scheme::kFifoThreshold,
                                             .link_rate = Rate::megabits_per_second(10'000.0),
                                             .buffer = ByteSize::megabytes(1'000.0)}};
  admission::FlowTable table{kSlots};
  struct NullSink final : PacketSink {
    void accept(const Packet&) override {}
  } sink;
  admission::ChurnDriver::Config churn;
  churn.arrival_rate_hz = 1'000.0;
  churn.mean_holding = Time::seconds(10);
  churn.mix = {{.profile = regulated_profile(1.0, 16.0), .weight = 1.0}};
  churn.max_concurrent = 100 * kSlots;
  admission::ChurnDriver driver{sim, controller, table, sink, churn, Rng{3}};
  driver.start();
  std::size_t peak = 0;
  for (int ms = 1; ms <= 500; ++ms) {
    sim.run_until(Time::milliseconds(ms));
    peak = std::max(peak, table.active_count());
  }
  EXPECT_EQ(peak, kSlots);
  EXPECT_EQ(table.slot_count(), kSlots);
  EXPECT_EQ(driver.counters().admitted, kSlots);
  EXPECT_GT(driver.counters().rejected_capacity, 0u);
  EXPECT_EQ(driver.counters().arrivals,
            driver.counters().admitted + driver.counters().rejected_capacity);
}

}  // namespace
}  // namespace bufq
