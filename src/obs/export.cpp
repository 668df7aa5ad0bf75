#include "obs/export.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace bufq::obs {
namespace {

/// Stable, round-trippable number formatting for the JSON exporters
/// (%.12g keeps 52-bit counters exact enough and never emits locale
/// artifacts).
std::string fmt(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.12g", v);
  return buffer;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_histogram_json(std::ostream& out, const HistogramSnapshot& h) {
  out << "{\"count\": " << h.count << ", \"sum\": " << h.sum << ", \"min\": " << h.min
      << ", \"max\": " << h.max << ", \"mean\": " << fmt(h.mean()) << ", \"p50\": "
      << fmt(h.percentile(0.50)) << ", \"p90\": " << fmt(h.percentile(0.90))
      << ", \"p99\": " << fmt(h.percentile(0.99)) << ", \"buckets\": [";
  bool first = true;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0) continue;
    if (!first) out << ", ";
    first = false;
    out << "[" << Histogram::bucket_lower_bound(i) << ", " << h.buckets[i] << "]";
  }
  out << "]}";
}

/// Prometheus metric name: bufq_ prefix, everything outside [a-zA-Z0-9_]
/// becomes '_'.
std::string prom_name(const std::string& name) {
  std::string out = "bufq_";
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

template <typename WriteBody>
void write_file_or_throw(const std::string& path, const char* what, WriteBody&& body) {
  std::ofstream out{path};
  if (!out) {
    throw std::runtime_error(std::string{"obs: cannot open "} + what + " output '" + path +
                             "' for writing");
  }
  body(out);
  out.flush();
  if (!out) {
    throw std::runtime_error(std::string{"obs: writing "} + what + " output '" + path +
                             "' failed");
  }
}

}  // namespace

void write_json(std::ostream& out, const RegistrySnapshot& snapshot) {
  out << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << json_escape(name) << "\": " << value;
  }
  out << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : snapshot.gauges) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << json_escape(name) << "\": {\"last\": " << gauge.last
        << ", \"max\": " << gauge.max << ", \"updates\": " << gauge.updates << "}";
  }
  out << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : snapshot.histograms) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << json_escape(name) << "\": ";
    write_histogram_json(out, histogram);
  }
  out << "}}";
}

void write_bench_json(std::ostream& out, const BenchReport& report) {
  out << "{\n  \"schema_version\": 1,\n  \"bench\": \"" << json_escape(report.bench)
      << "\",\n  \"derived\": {";
  bool first = true;
  for (const auto& [name, value] : report.derived) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << json_escape(name) << "\": " << fmt(value);
  }
  out << "},\n  \"metrics\": ";
  write_json(out, report.snapshot);
  out << "\n}\n";
}

void write_bench_json_file(const std::string& path, const BenchReport& report) {
  write_file_or_throw(path, "bench-json",
                      [&report](std::ostream& out) { write_bench_json(out, report); });
}

void write_prometheus_text(std::ostream& out, const RegistrySnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = prom_name(name);
    out << "# TYPE " << prom << " counter\n" << prom << " " << value << "\n";
  }
  for (const auto& [name, gauge] : snapshot.gauges) {
    const std::string prom = prom_name(name);
    out << "# TYPE " << prom << " gauge\n" << prom << " " << gauge.last << "\n";
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    const std::string prom = prom_name(name);
    out << "# TYPE " << prom << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < histogram.buckets.size(); ++i) {
      if (histogram.buckets[i] == 0) continue;
      cumulative += histogram.buckets[i];
      // `le` is the bucket's inclusive upper bound.
      const std::int64_t le = i + 1 < Histogram::kBucketCount
                                  ? Histogram::bucket_lower_bound(i + 1) - 1
                                  : INT64_MAX;
      out << prom << "_bucket{le=\"" << le << "\"} " << cumulative << "\n";
    }
    out << prom << "_bucket{le=\"+Inf\"} " << histogram.count << "\n";
    out << prom << "_sum " << histogram.sum << "\n";
    out << prom << "_count " << histogram.count << "\n";
  }
}

void write_prometheus_file(const std::string& path, const RegistrySnapshot& snapshot) {
  write_file_or_throw(path, "prometheus", [&snapshot](std::ostream& out) {
    write_prometheus_text(out, snapshot);
  });
}

}  // namespace bufq::obs
