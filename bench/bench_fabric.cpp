// Fabric grid: every built-in multi-hop topology x buffer-management
// scheme x cross-traffic load, run through the sweep engine.
//
// Each cell carries one planner-provisioned premium flow against
// saturating cross traffic and reports premium throughput / loss / p100
// delay against the composed per-hop bound (see src/fabric/planner.h),
// plus aggregate throughput and cross-traffic loss.  Rows are
// bit-identical at any --jobs (SweepCase::runner determinism contract).
//
// Flags:
//   --seeds=N          replications per cell (default 2)
//   --seed=S           base seed (default 1)
//   --warmup=SECS      transient discarded (default 1)
//   --duration=SECS    measured interval (default 4)
//   --loads=a,b        cross-traffic intensities (default 0.6,1.0)
//   --jobs=N           worker threads (default: hardware concurrency)
//   --shards=N         run every cell on the sharded parallel engine
//                      (default 1 = serial).  The CSV on stdout is
//                      bit-identical at any shard count — CI diffs the
//                      two byte-for-byte — so the shard count is
//                      deliberately NOT printed into the rows.
//   --progress         progress/ETA line on stderr
//   --metrics-out=PATH BENCH_fabric.json artifact: the grid's merged obs
//                      registry plus derived.events_per_sec from a
//                      dedicated 16-switch leaf-spine timing pass (the
//                      perf-floor series; exit 1 if PATH is unwritable)
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "expt/sweep.h"
#include "fabric/scenario.h"
#include "obs/export.h"
#include "util/flags.h"
#include "util/task_pool.h"

namespace {

using namespace bufq;
using namespace bufq::fabric;

struct Shape {
  FabricTopologyKind kind;
  int size;
};

struct Scheme {
  const char* name;
  ManagerKind manager;
};

std::string format_load(double load) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", load);
  return buf;
}

/// The perf-floor series: one 16-switch leaf-spine run (8 leaves + 8
/// spines, 16 hosts), FIFO + thresholds at load 1.0, timed by the
/// sim.events / sim.wall_ns counters the run records itself.
double measure_leaf_spine_events_per_sec(Time warmup, Time duration, std::uint64_t seed) {
  FabricConfig config;
  config.topology = FabricTopologyKind::kLeafSpine;
  config.size = 8;
  config.scheme.manager = ManagerKind::kThreshold;
  config.load = 1.0;
  config.warmup = warmup;
  config.duration = duration;
  config.seed = seed;
  config.record_delays = false;
  const ExperimentResult result = run_fabric_experiment(config);
  const auto events = result.metrics.counters.find("sim.events");
  const auto wall = result.metrics.counters.find("sim.wall_ns");
  if (events == result.metrics.counters.end() || wall == result.metrics.counters.end() ||
      wall->second == 0) {
    return 0.0;
  }
  return static_cast<double>(events->second) / (static_cast<double>(wall->second) * 1e-9);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t seeds = 0;
  std::uint64_t base_seed = 0;
  Time warmup;
  Time duration;
  std::vector<double> loads;
  std::size_t jobs = 0;
  int shards = 1;
  bool progress = false;
  std::string metrics_out;
  try {
    Flags flags{argc, argv};
    seeds = flags.get_count("seeds", 2);
    base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    warmup = Time::from_seconds(flags.get_double("warmup", 1.0));
    duration = Time::from_seconds(flags.get_double("duration", 4.0));
    loads = flags.get_list<double>("loads", {0.6, 1.0});
    jobs = flags.get_count("jobs", 0);
    shards = static_cast<int>(flags.get_count("shards", 1));
    progress = flags.get_bool("progress", false);
    metrics_out = flags.get_string("metrics-out", "");
    if (const auto unused = flags.unused(); !unused.empty()) {
      throw std::invalid_argument("unknown flag: --" + unused.front());
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const std::vector<Shape> shapes = {
      {FabricTopologyKind::kParkingLot, 5},
      {FabricTopologyKind::kLeafSpine, 8},
      {FabricTopologyKind::kFatTree, 4},
      {FabricTopologyKind::kWanRing, 8},
  };
  const std::vector<Scheme> schemes = {
      {"taildrop", ManagerKind::kNone},
      {"threshold", ManagerKind::kThreshold},
      {"sharing", ManagerKind::kSharing},
  };

  std::vector<SweepCase> cases;
  for (const Shape& shape : shapes) {
    for (const Scheme& scheme : schemes) {
      for (double load : loads) {
        FabricConfig config;
        config.topology = shape.kind;
        config.size = shape.size;
        config.scheme.manager = scheme.manager;
        config.load = load;
        config.warmup = warmup;
        config.duration = duration;
        config.shards = shards;
        const std::string label = std::string{to_string(shape.kind)} + "/" + scheme.name +
                                  "/load=" + format_load(load);
        cases.push_back(fabric_sweep_case(label,
                                          {{"topology", to_string(shape.kind)},
                                           {"size", std::to_string(shape.size)},
                                           {"manager", scheme.name},
                                           {"load", format_load(load)}},
                                          config));
      }
    }
  }

  std::cout << "# bench_fabric: premium guarantee across multi-hop fabrics\n"
            << "# topologies=parking_lot(5),leaf_spine(8),fat_tree(4),wan_ring(8)"
            << " managers=taildrop,threshold,sharing\n"
            << "# seeds=" << seeds << " base_seed=" << base_seed
            << " warmup=" << warmup.to_seconds() << "s duration=" << duration.to_seconds()
            << "s\n";
  std::cerr << "# jobs=" << (jobs == 0 ? default_thread_count() : jobs)
            << " runs=" << cases.size() * seeds << "\n";

  SweepOptions options;
  options.jobs = jobs == 0 ? default_thread_count() : jobs;
  options.replications = seeds;
  options.base_seed = base_seed;
  // Common random numbers: scheme-vs-scheme comparisons at one grid point
  // share the seed set, matching the figure benches.
  options.seed_mode = SeedMode::kSharedAcrossCases;
  options.progress = progress ? &std::cerr : nullptr;

  const SweepResult result = run_sweep(std::move(cases), fabric_metrics, options);
  write_sweep_csv(std::cout, result);

  if (!metrics_out.empty()) {
    obs::BenchReport report;
    report.bench = "bench_fabric";
    for (const SweepRow& row : result.rows) report.snapshot.merge(row.obs_metrics);
    report.derived["grid_cases"] = static_cast<double>(result.rows.size());
    report.derived["events_per_sec"] =
        measure_leaf_spine_events_per_sec(warmup, duration, base_seed);
    try {
      obs::write_bench_json_file(metrics_out, report);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", metrics_out.c_str());
  }

  if (!result.ok()) {
    for (const SweepRow& row : result.rows) {
      if (!row.error.empty()) {
        std::cerr << "error: case " << row.index << " (" << row.label << "): " << row.error
                  << "\n";
      }
    }
    return 1;
  }
  return 0;
}
