#include "stats/collector.h"
#include "stats/replication.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "sim/checkpoint.h"

namespace bufq {
namespace {

Packet make_packet(FlowId flow, std::int64_t size = 500) {
  return Packet{.flow = flow, .size_bytes = size, .seq = 0, .created = Time::zero()};
}

TEST(CollectorTest, CountsPerFlowEvents) {
  StatsCollector stats{2};
  stats.on_offered(make_packet(0));
  stats.on_offered(make_packet(0));
  stats.on_offered(make_packet(1, 300));
  stats.on_delivered(make_packet(0), Time::zero());
  stats.on_dropped(make_packet(1, 300), Time::zero());
  EXPECT_EQ(stats.flow(0).offered_bytes, 1'000);
  EXPECT_EQ(stats.flow(0).offered_packets, 2u);
  EXPECT_EQ(stats.flow(0).delivered_bytes, 500);
  EXPECT_EQ(stats.flow(1).dropped_bytes, 300);
  EXPECT_EQ(stats.flow(1).dropped_packets, 1u);
}

TEST(CollectorTest, TotalAggregates) {
  StatsCollector stats{3};
  for (FlowId f = 0; f < 3; ++f) {
    stats.on_offered(make_packet(f));
    stats.on_delivered(make_packet(f), Time::zero());
  }
  const auto total = stats.total();
  EXPECT_EQ(total.offered_bytes, 1'500);
  EXPECT_EQ(total.delivered_bytes, 1'500);
  EXPECT_EQ(total.offered_packets, 3u);
}

TEST(CollectorTest, SnapshotDiffIsolatesInterval) {
  StatsCollector stats{1};
  stats.on_offered(make_packet(0));
  const auto before = stats.snapshot();
  stats.on_offered(make_packet(0));
  stats.on_offered(make_packet(0));
  const auto after = stats.snapshot();
  const auto delta = after[0] - before[0];
  EXPECT_EQ(delta.offered_bytes, 1'000);
  EXPECT_EQ(delta.offered_packets, 2u);
}

TEST(CollectorTest, LossRatio) {
  FlowCounters c;
  c.offered_bytes = 1'000;
  c.dropped_bytes = 250;
  EXPECT_DOUBLE_EQ(c.loss_ratio(), 0.25);
  EXPECT_DOUBLE_EQ(FlowCounters{}.loss_ratio(), 0.0);
}

TEST(CollectorTest, RestoreRefusesAnotherFlowCount) {
  StatsCollector saved{3};
  saved.on_offered(make_packet(2));
  CheckpointWriter w;
  saved.save_state(w);
  const std::vector<std::byte> blob = w.finish(0);

  StatsCollector same{3};
  CheckpointReader same_reader{blob};
  same.restore_state(same_reader);
  EXPECT_EQ(same.flow(2).offered_bytes, 500);

  StatsCollector fewer{2};
  CheckpointReader reader{blob};
  EXPECT_THROW(fewer.restore_state(reader), CheckpointFormatError);
  EXPECT_EQ(fewer.flow_count(), 2u);
}

// ------------------------------------------------------------ summaries

TEST(SummarizeTest, SingleSampleHasZeroHalfWidth) {
  const auto s = summarize({5.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);
  EXPECT_EQ(s.n, 1u);
}

TEST(SummarizeTest, IdenticalSamplesHaveZeroHalfWidth) {
  const auto s = summarize({2.0, 2.0, 2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);
}

TEST(SummarizeTest, KnownFiveSampleCase) {
  // Samples 1..5: mean 3, sd sqrt(2.5), t(4) = 2.776.
  const auto s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(s.ci95, 2.776 * std::sqrt(2.5) / std::sqrt(5.0), 1e-9);
  EXPECT_EQ(s.n, 5u);
}

TEST(TCriticalTest, TableValuesAndTail) {
  EXPECT_DOUBLE_EQ(t_critical_95(1), 12.706);
  EXPECT_DOUBLE_EQ(t_critical_95(4), 2.776);
  EXPECT_DOUBLE_EQ(t_critical_95(30), 2.042);
  EXPECT_DOUBLE_EQ(t_critical_95(1000), 1.960);
}

TEST(TCriticalTest, MonotoneDecreasing) {
  for (std::size_t df = 1; df < 30; ++df) {
    EXPECT_GT(t_critical_95(df), t_critical_95(df + 1));
  }
}

}  // namespace
}  // namespace bufq
