// Small, dependency-free helpers of the benchmark: argument parsing,
// percentiles, the output digest, reference digests and the result line.
// Everything here is pure so tests/util_test.cpp can pin it down.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Workload names the benchmark accepts, in BENCHMARK.json order.
inline constexpr std::string_view kWorkloads[] = {"paper_sweep", "leaf_spine",
                                                  "leaf_spine_sharded", "churn"};

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  int seconds{10};
  bool trace{false};
  /// Shard count of leaf_spine_sharded; 0 = its default (4).
  int shards{0};
  /// Reference digest file; empty = no reference comparison.
  std::string reference;
};

/// Parses `--name value` pairs, the form run.py passes on.  Returns
/// an error message, or nullopt on success.  `hardware_threads` bounds
/// --shards so a workload never asks for more threads than the box has.
[[nodiscard]] std::optional<std::string> parse_args(const std::vector<std::string>& argv,
                                                    unsigned hardware_threads, Args& out);

/// Linear-interpolation percentile (the numpy/"inclusive" definition) of
/// `values`, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// 64-bit FNV-1a over little-endian words: the run-output digest.
class Digest {
 public:
  void mix(std::uint64_t word);
  void mix_signed(std::int64_t word) { mix(static_cast<std::uint64_t>(word)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{14695981039346656037ull};
};

/// Looks up the committed digest of `scenario` at `seed` in a reference
/// file of `scenario seed hex-digest` lines ('#' starts a comment).
/// Returns nullopt when the file has no entry; throws std::runtime_error
/// when the file cannot be read or a line is malformed.
[[nodiscard]] std::optional<std::uint64_t> load_reference(const std::string& path,
                                                          std::string_view scenario,
                                                          std::uint64_t seed);

[[nodiscard]] std::string hex64(std::uint64_t value);

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// The benchmark's last stdout line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics.  Values keep all 17 significant
/// digits; a non-finite value is written as 0.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench
