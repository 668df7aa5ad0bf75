// The two modes of one benchmark invocation: the end-to-end measurement
// (--trace 0, measure.cpp) and the traced layer ledger (--trace 1,
// ledger.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util.h"
#include "workloads.h"

namespace perfbench {

struct Report {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the metrics.
  std::vector<std::string> notes;

  void fail(std::uint64_t runs, const std::string& why) {
    correct = false;
    failed += runs;
    notes.push_back("FAIL: " + why);
  }
};

[[nodiscard]] Report measure_workload(const Args& args);
[[nodiscard]] Report trace_workload(const Args& args);

/// Shards the workload runs at: args.shards for leaf_spine_sharded, else 1.
[[nodiscard]] int shards_for(const Args& args);

/// Why `digest` fails the committed reference for the workload's scenario
/// at args.seed, or nullopt when it matches or no reference is committed.
[[nodiscard]] std::optional<std::string> reference_mismatch(const Args& args, Kind kind,
                                                            std::uint64_t digest);

}  // namespace perfbench
