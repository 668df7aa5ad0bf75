// Exporters for MetricsRegistry snapshots: structured JSON (the
// BENCH_*.json perf-trajectory artifact format) and Prometheus text
// exposition.
//
// Failure contract (the loud-failure audit): the *_file writers throw
// std::runtime_error when the output path cannot be opened or a write
// fails — metrics are never silently dropped.  Callers that must not
// throw (bench main()s) catch, report, and exit non-zero.
#pragma once

#include <map>
#include <ostream>
#include <string>

#include "obs/metrics.h"

namespace bufq::obs {

/// One perf-trajectory artifact: a bench's derived headline numbers plus
/// the full registry snapshot behind them.  Serialized by
/// write_bench_json to the schema in scripts/bench_schema.json.
struct BenchReport {
  /// Producing binary, e.g. "bench_scalability".
  std::string bench;
  /// Headline scalars derived outside the registry (events_per_sec,
  /// decisions_per_sec, overhead ratios, ...).
  std::map<std::string, double> derived;
  /// Everything the run recorded.
  RegistrySnapshot snapshot;
};

/// Writes a snapshot as a JSON object {"counters": .., "gauges": ..,
/// "histograms": ..}.  Deterministic: keys sorted (std::map order), fixed
/// number formatting.  Histograms carry count/sum/min/max/mean/p50/p90/p99
/// and the non-empty [lower_bound, count] buckets.
void write_json(std::ostream& out, const RegistrySnapshot& snapshot);

/// Writes a full BENCH_*.json document: schema_version, bench, derived,
/// metrics (the write_json object).
void write_bench_json(std::ostream& out, const BenchReport& report);

/// write_bench_json to `path`; throws std::runtime_error on any I/O error.
void write_bench_json_file(const std::string& path, const BenchReport& report);

/// Writes the Prometheus text exposition format (counters, gauges, and
/// cumulative histogram series with +Inf, _sum, _count).  Metric names are
/// prefixed "bufq_" and sanitized to [a-zA-Z0-9_].
void write_prometheus_text(std::ostream& out, const RegistrySnapshot& snapshot);

/// write_prometheus_text to `path`; throws std::runtime_error on any I/O
/// error.
void write_prometheus_file(const std::string& path, const RegistrySnapshot& snapshot);

}  // namespace bufq::obs
