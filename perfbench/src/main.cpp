// The bufferq benchmark binary.  perfbench/run.py builds it from the
// checkout's sources and runs it as
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--shards K] [--reference FILE]
//
// The last stdout line is the result object; the exit code is 0 only when
// every output check passed, 1 when one failed (or the run threw), 2 on
// bad arguments.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "util.h"
#include "workloads.h"

namespace {

/// CPUs this process may run on (what nproc prints).
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

constexpr const char* kUsage =
    "usage: perfbench --workload paper_sweep|leaf_spine|leaf_spine_sharded|churn "
    "[--seed N] [--seconds S] [--trace 0|1] [--shards K] [--reference FILE]";

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> raw(argv + 1, argv + argc);
  const unsigned cpus = usable_cpus();
  perfbench::Args args;
  if (const auto error = perfbench::parse_args(raw, cpus, args)) {
    std::fprintf(stderr, "perfbench: %s\n%s\n", error->c_str(), kUsage);
    return 2;
  }
  if (args.workload == "leaf_spine_sharded" && args.shards == 0) {
    args.shards = std::clamp(static_cast<int>(cpus), 2, perfbench::kDefaultShards);
  }
  try {
    const perfbench::Report report =
        args.trace ? perfbench::trace_workload(args) : perfbench::measure_workload(args);
    for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
    for (const perfbench::Metric& m : report.metrics) {
      std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%s\n", perfbench::result_json(report.correct, report.attempted, report.failed,
                                               report.metrics)
                            .c_str());
    std::fflush(stdout);
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
