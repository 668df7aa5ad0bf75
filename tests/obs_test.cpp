// Metrics-registry unit tests: counter/gauge/histogram semantics, the
// log2-linear bucket math and its error bound, percentile math against
// known distributions, ScopedMetrics confinement and scope folding, and
// snapshot determinism when runs are spread across parallel_for threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/task_pool.h"

namespace bufq::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, TracksLastMaxAndUpdates) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
  EXPECT_EQ(g.updates(), 0u);
  g.set(10);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 10);
  EXPECT_EQ(g.updates(), 2u);
}

TEST(GaugeTest, AddAdjustsLevelAndHighWaterMark) {
  Gauge g;
  g.add(5);
  g.add(7);
  g.add(-4);
  EXPECT_EQ(g.value(), 8);
  EXPECT_EQ(g.max(), 12);
  EXPECT_EQ(g.updates(), 3u);
}

TEST(HistogramTest, SmallValuesGetExactUnitBuckets) {
  for (std::int64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), static_cast<std::size_t>(v));
    EXPECT_EQ(Histogram::bucket_lower_bound(static_cast<std::size_t>(v)), v);
  }
}

TEST(HistogramTest, BucketIndexLowerBoundRoundTrip) {
  // lower_bound(index(v)) <= v < lower_bound(index(v)+1) across octaves.
  std::vector<std::int64_t> values;
  for (std::int64_t base = 1; base > 0 && base < (std::int64_t{1} << 62);
       base <<= 1) {
    values.push_back(base);
    values.push_back(base + base / 3);
    values.push_back(base * 2 - 1);
  }
  values.push_back(std::numeric_limits<std::int64_t>::max());
  for (const std::int64_t v : values) {
    const std::size_t index = Histogram::bucket_index(v);
    ASSERT_LT(index, Histogram::kBucketCount) << "value " << v;
    EXPECT_LE(Histogram::bucket_lower_bound(index), v) << "value " << v;
    if (index + 1 < Histogram::kBucketCount) {
      EXPECT_GT(Histogram::bucket_lower_bound(index + 1), v) << "value " << v;
    }
  }
}

TEST(HistogramTest, BucketWidthBoundsRelativeError) {
  // Each octave splits into 16 linear sub-buckets, so a bucket's width is
  // at most lower/16 — the 6.25% relative-error contract.
  for (std::size_t index = 16; index + 1 < Histogram::kBucketCount; ++index) {
    const auto lower = Histogram::bucket_lower_bound(index);
    const auto width = Histogram::bucket_lower_bound(index + 1) - lower;
    EXPECT_LE(width, std::max<std::int64_t>(1, lower / 16)) << "bucket " << index;
  }
}

TEST(HistogramTest, NegativesClampToZero) {
  Histogram h;
  h.record(-5);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
}

TEST(HistogramTest, EmptySnapshotReportsZeros) {
  Histogram h;
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_EQ(snap.mean(), 0.0);
  EXPECT_EQ(snap.percentile(0.5), 0.0);
}

TEST(HistogramTest, PercentilesOfUniformRange) {
  Histogram h;
  for (std::int64_t v = 1; v <= 1000; ++v) h.record(v);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.min, 1);
  EXPECT_EQ(snap.max, 1000);
  EXPECT_DOUBLE_EQ(snap.mean(), 500.5);
  // Bucket-midpoint interpolation: within the 6.25% relative-error bound.
  EXPECT_NEAR(snap.percentile(0.50), 500.0, 500.0 / 16.0);
  EXPECT_NEAR(snap.percentile(0.90), 900.0, 900.0 / 16.0);
  EXPECT_NEAR(snap.percentile(0.99), 990.0, 990.0 / 16.0);
  // Extremes clamp to the observed min/max.
  EXPECT_DOUBLE_EQ(snap.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.percentile(1.0), 1000.0);
}

TEST(HistogramTest, PercentilesExactBelowSixteen) {
  Histogram h;
  for (std::int64_t v = 0; v < 16; ++v) h.record(v);
  const HistogramSnapshot snap = h.snapshot();
  // Unit buckets: midpoint of bucket v is exactly v.
  EXPECT_DOUBLE_EQ(snap.percentile(1.0 / 16.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.percentile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(snap.percentile(1.0), 15.0);
}

TEST(HistogramTest, SnapshotMergeMatchesCombinedRecording) {
  Histogram a;
  Histogram b;
  Histogram combined;
  for (std::int64_t v = 1; v <= 100; ++v) {
    (v % 2 == 0 ? a : b).record(v * 37);
    combined.record(v * 37);
  }
  HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const HistogramSnapshot expected = combined.snapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);
  EXPECT_EQ(merged.min, expected.min);
  EXPECT_EQ(merged.max, expected.max);
  EXPECT_EQ(merged.buckets, expected.buckets);
}

TEST(RegistryTest, FindOrCreateReturnsSameInstance) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
}

TEST(RegistryTest, NameIdentifiesOneKindOnly) {
  MetricsRegistry registry;
  (void)registry.counter("name");
  EXPECT_THROW((void)registry.gauge("name"), std::logic_error);
  EXPECT_THROW((void)registry.histogram("name"), std::logic_error);
}

TEST(RegistryTest, SnapshotMergeFoldsEveryKind) {
  MetricsRegistry a;
  a.counter("c").add(2);
  a.gauge("g").set(5);
  a.histogram("h").record(10);
  MetricsRegistry b;
  b.counter("c").add(3);
  b.gauge("g").set(1);
  b.histogram("h").record(30);

  RegistrySnapshot folded = a.snapshot();
  folded.merge(b.snapshot());
  EXPECT_EQ(folded.counters.at("c"), 5u);
  EXPECT_EQ(folded.gauges.at("g").last, 1);  // b updated last
  EXPECT_EQ(folded.gauges.at("g").max, 5);
  EXPECT_EQ(folded.gauges.at("g").updates, 2u);
  EXPECT_EQ(folded.histograms.at("h").count, 2u);
}

TEST(ScopedMetricsTest, CurrentIsNullWithoutScope) {
  EXPECT_EQ(MetricsRegistry::current(), nullptr);
  // Handles looked up with no registry are inert.
  const CounterHandle handle = CounterHandle::lookup("nobody");
  EXPECT_FALSE(handle.active());
  handle.add();  // must be a no-op, not a crash
}

TEST(ScopedMetricsTest, InstallsAndRestoresCurrent) {
  {
    ScopedMetrics scope;
    EXPECT_EQ(MetricsRegistry::current(), &scope.registry());
    {
      ScopedMetrics inner;
      EXPECT_EQ(MetricsRegistry::current(), &inner.registry());
    }
    EXPECT_EQ(MetricsRegistry::current(), &scope.registry());
  }
  EXPECT_EQ(MetricsRegistry::current(), nullptr);
}

TEST(ScopedMetricsTest, InnerScopeAbsorbsIntoOuter) {
  ScopedMetrics outer;
  outer.registry().counter("events").add(1);
  {
    ScopedMetrics inner;
    inner.registry().counter("events").add(10);
    inner.registry().gauge("depth").set(7);
    inner.registry().histogram("lat").record(100);
  }
  const RegistrySnapshot snap = outer.registry().snapshot();
  EXPECT_EQ(snap.counters.at("events"), 11u);
  EXPECT_EQ(snap.gauges.at("depth").last, 7);
  EXPECT_EQ(snap.gauges.at("depth").max, 7);
  EXPECT_EQ(snap.histograms.at("lat").count, 1u);
}

TEST(ScopedMetricsTest, HandlesResolveAgainstInnermostScope) {
  ScopedMetrics scope;
  const CounterHandle handle = CounterHandle::lookup("hits");
  ASSERT_TRUE(handle.active());
  handle.add(3);
  EXPECT_EQ(scope.registry().counter("hits").value(), 3u);
}

TEST(ScopedMetricsTest, InnerGaugeUpdatesFoldExactly) {
  // The fold is RegistrySnapshot::merge, the rule sweeps use for rows:
  // every update of the inner scope counts, and its zero-valued metrics
  // reach the outer scope too.
  ScopedMetrics outer;
  {
    ScopedMetrics inner;
    Gauge& level = inner.registry().gauge("level");
    level.set(4);
    level.set(9);
    level.set(2);
    (void)inner.registry().counter("untouched");
  }
  const RegistrySnapshot snap = outer.registry().snapshot();
  EXPECT_EQ(snap.gauges.at("level").updates, 3u);
  EXPECT_EQ(snap.gauges.at("level").last, 2);
  EXPECT_EQ(snap.gauges.at("level").max, 9);
  EXPECT_EQ(snap.counters.at("untouched"), 0u);
}

TEST(ScopedMetricsTest, TallyDiscardedWhenNoEnclosingRegistry) {
  ASSERT_EQ(MetricsRegistry::current(), nullptr);
  { ScopedMetrics scope; scope.registry().counter("orphan").add(5); }
  // The tally went nowhere: no registry is left installed, and a fresh
  // scope starts empty rather than inheriting it.
  EXPECT_EQ(MetricsRegistry::current(), nullptr);
  const ScopedMetrics fresh;
  EXPECT_TRUE(fresh.registry().snapshot().empty());
}

TEST(ScopedMetricsTest, PoolWorkerSeesNoSubmittingThreadsRegistry) {
  // A registry is confined to the thread that installed it: a body on a
  // parallel_for thread must not resolve handles into the caller's scope,
  // or two threads would write one plain cell.
  ScopedMetrics scope;
  bool worker_current_null = false;
  bool worker_handles_inactive = false;
  parallel_for(1, 2, [&](std::size_t) {
    worker_current_null = MetricsRegistry::current() == nullptr;
    const CounterHandle counter = CounterHandle::lookup("worker.hits");
    const GaugeHandle gauge = GaugeHandle::lookup("worker.level");
    const HistogramHandle histogram = HistogramHandle::lookup("worker.lat");
    counter.add();
    gauge.set(1);
    histogram.record(1);
    worker_handles_inactive = !counter.active() && !gauge.active() && !histogram.active();
  });
  EXPECT_TRUE(worker_current_null);
  EXPECT_TRUE(worker_handles_inactive);
  EXPECT_EQ(MetricsRegistry::current(), &scope.registry());
  EXPECT_TRUE(scope.registry().snapshot().empty());
}

// The sweep determinism contract, in miniature: each "run" records into
// its own ScopedMetrics on a parallel_for thread, the per-run snapshots
// are folded in run order, and the result must not depend on the worker
// count.
RegistrySnapshot fold_runs_with_pool(std::size_t jobs, std::size_t runs) {
  std::vector<RegistrySnapshot> slots(runs);
  parallel_for(runs, jobs, [&slots](std::size_t r) {
    ScopedMetrics scope;
    Counter& events = scope.registry().counter("events");
    Histogram& latency = scope.registry().histogram("latency");
    for (std::size_t i = 0; i <= r; ++i) {
      events.add();
      latency.record(static_cast<std::int64_t>(13 * r + i));
    }
    scope.registry().gauge("level").set(static_cast<std::int64_t>(r));
    slots[r] = scope.registry().snapshot();
  });
  RegistrySnapshot folded;
  for (const RegistrySnapshot& slot : slots) folded.merge(slot);
  return folded;
}

TEST(ScopedMetricsTest, FoldedSnapshotsIndependentOfWorkerCount) {
  const RegistrySnapshot serial = fold_runs_with_pool(1, 24);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    const RegistrySnapshot parallel = fold_runs_with_pool(jobs, 24);
    EXPECT_EQ(parallel.counters, serial.counters) << "jobs=" << jobs;
    ASSERT_EQ(parallel.histograms.size(), serial.histograms.size());
    const HistogramSnapshot& a = parallel.histograms.at("latency");
    const HistogramSnapshot& b = serial.histograms.at("latency");
    EXPECT_EQ(a.count, b.count) << "jobs=" << jobs;
    EXPECT_EQ(a.sum, b.sum) << "jobs=" << jobs;
    EXPECT_EQ(a.buckets, b.buckets) << "jobs=" << jobs;
    // Gauge last/max: merge is order-defined (run order), not racy.
    EXPECT_EQ(parallel.gauges.at("level").last, serial.gauges.at("level").last);
    EXPECT_EQ(parallel.gauges.at("level").max, serial.gauges.at("level").max);
  }
}

}  // namespace
}  // namespace bufq::obs
