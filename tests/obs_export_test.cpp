// Exporter tests: golden JSON / Prometheus output for a known snapshot
// (which doubles as a determinism check — two exports of the same
// snapshot must be byte-identical) and the loud-failure contract on
// unwritable paths.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/export.h"
#include "obs/metrics.h"

namespace bufq::obs {
namespace {

/// One of every metric kind with hand-checkable values: the 100 recording
/// lands exactly on a bucket lower bound (octave 6, sub-bucket 9).
RegistrySnapshot sample_snapshot() {
  MetricsRegistry registry;
  registry.counter("c.hits").add(42);
  Gauge& gauge = registry.gauge("g.depth");
  gauge.set(9);
  gauge.set(3);
  Histogram& histogram = registry.histogram("h.lat");
  histogram.record(1);
  histogram.record(2);
  histogram.record(2);
  histogram.record(100);
  return registry.snapshot();
}

constexpr const char* kGoldenJson =
    "{\"counters\": {\"c.hits\": 42}, "
    "\"gauges\": {\"g.depth\": {\"last\": 3, \"max\": 9, \"updates\": 2}}, "
    "\"histograms\": {\"h.lat\": {\"count\": 4, \"sum\": 105, \"min\": 1, "
    "\"max\": 100, \"mean\": 26.25, \"p50\": 2, \"p90\": 100, \"p99\": 100, "
    "\"buckets\": [[1, 1], [2, 2], [100, 1]]}}}";

TEST(ExportJsonTest, MatchesGolden) {
  std::ostringstream out;
  write_json(out, sample_snapshot());
  EXPECT_EQ(out.str(), kGoldenJson);
}

TEST(ExportJsonTest, DeterministicAcrossExports) {
  std::ostringstream a;
  std::ostringstream b;
  write_json(a, sample_snapshot());
  write_json(b, sample_snapshot());
  EXPECT_EQ(a.str(), b.str());
}

TEST(ExportJsonTest, BenchReportMatchesGolden) {
  BenchReport report;
  report.bench = "unit";
  report.derived["events_per_sec"] = 12345.5;
  report.snapshot = sample_snapshot();
  std::ostringstream out;
  write_bench_json(out, report);
  const std::string expected = std::string{} +
      "{\n  \"schema_version\": 1,\n  \"bench\": \"unit\",\n"
      "  \"derived\": {\"events_per_sec\": 12345.5},\n  \"metrics\": " +
      kGoldenJson + "\n}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(ExportJsonTest, EscapesControlCharactersInNames) {
  MetricsRegistry registry;
  registry.counter("weird\"name\\with\ttabs").add(1);
  std::ostringstream out;
  write_json(out, registry.snapshot());
  EXPECT_NE(out.str().find("\\\"name\\\\with\\t"), std::string::npos);
}

TEST(ExportPrometheusTest, MatchesGolden) {
  std::ostringstream out;
  write_prometheus_text(out, sample_snapshot());
  // le bounds: unit buckets 1 and 2 close at themselves; the 100
  // recording lands in [100, 104), whose inclusive upper bound is 103.
  EXPECT_EQ(out.str(),
            "# TYPE bufq_c_hits counter\n"
            "bufq_c_hits 42\n"
            "# TYPE bufq_g_depth gauge\n"
            "bufq_g_depth 3\n"
            "# TYPE bufq_h_lat histogram\n"
            "bufq_h_lat_bucket{le=\"1\"} 1\n"
            "bufq_h_lat_bucket{le=\"2\"} 3\n"
            "bufq_h_lat_bucket{le=\"103\"} 4\n"
            "bufq_h_lat_bucket{le=\"+Inf\"} 4\n"
            "bufq_h_lat_sum 105\n"
            "bufq_h_lat_count 4\n");
}

TEST(ExportFailureTest, BenchJsonThrowsOnUnwritablePath) {
  BenchReport report;
  report.bench = "unit";
  EXPECT_THROW(
      write_bench_json_file("/nonexistent-bufq-dir/report.json", report),
      std::runtime_error);
}

TEST(ExportFailureTest, PrometheusThrowsOnUnwritablePath) {
  EXPECT_THROW(
      write_prometheus_file("/nonexistent-bufq-dir/metrics.prom", sample_snapshot()),
      std::runtime_error);
}

}  // namespace
}  // namespace bufq::obs
