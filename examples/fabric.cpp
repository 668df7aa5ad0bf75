// Fabric CLI: run any built-in multi-hop topology with any scheme and
// print the planner report plus end-to-end results.
//
//   ./fabric --topology=fat_tree --size=4 --manager=sharing --load=1.0
//   ./fabric --topology=parking_lot --size=5 --report=true
//
// Flags:
//   --topology   parking_lot | leaf_spine | fat_tree | wan_ring
//   --size       hops / leaves / k / routers (shape-dependent)
//   --scheduler  fifo | wfq
//   --manager    none | taildrop | threshold | sharing | dt  (taildrop =
//                none; hybrid, selective, red and fred are single-link
//                schemes and are refused)
//   --load       cross-traffic intensity (fraction of link rate)
//   --premium_mbps  declared token rate of the guaranteed flow
//   --link_mbps / --buffer_kb / --prop_ms   uniform link parameters
//   --warmup / --duration  seconds
//   --seed       root seed (also the ECMP salt)
//   --shards     partition the run across N >= 1 workers (conservative
//                lookahead, output bit-identical to serial; unshardable
//                configs fall back to serial with a warning — see
//                DESIGN.md §16; incompatible with the checkpoint flags)
//   --report     print the per-hop budget report (default true)
//   --checkpoint-out=PATH   snapshot the run mid-flight to PATH
//   --checkpoint-in=PATH    resume the run from PATH (skips the warmup)
//   --checkpoint-roundtrip  snapshot + restore in-process; the report
//                           must match a plain run exactly
//   --checkpoint-events=N / --checkpoint-at=SECS  when to snapshot
//                           (default: end of warmup)
//
// Exits 2 on an unknown flag, and with "error: ..." on an unknown or
// refused scheme name, a shape the topology cannot take (say
// --topology=leaf_spine --size=0), --shards below 1, a non-positive
// --duration or a negative --warmup.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "check/invariants.h"
#include "expt/experiment.h"
#include "expt/sweep.h"
#include "fabric/scenario.h"
#include "util/flags.h"

namespace {

bufq::fabric::FabricTopologyKind parse_topology(const std::string& name) {
  using bufq::fabric::FabricTopologyKind;
  if (name == "parking_lot") return FabricTopologyKind::kParkingLot;
  if (name == "leaf_spine") return FabricTopologyKind::kLeafSpine;
  if (name == "fat_tree") return FabricTopologyKind::kFatTree;
  if (name == "wan_ring") return FabricTopologyKind::kWanRing;
  throw std::invalid_argument("unknown --topology: " + name);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace bufq;
  using namespace bufq::fabric;

  const Flags flags{argc, argv};
  FabricConfig config;
  config.topology = parse_topology(flags.get_string("topology", "parking_lot"));
  config.size = static_cast<int>(flags.get_int("size", 5));
  config.scheme.scheduler = parse_scheduler(flags.get_string("scheduler", "fifo"));
  config.scheme.manager = parse_manager(flags.get_string("manager", "threshold"));
  config.load = flags.get_double("load", 1.0);
  config.premium_rate = Rate::megabits_per_second(flags.get_double("premium_mbps", 6.0));
  config.link_rate = Rate::megabits_per_second(flags.get_double("link_mbps", 48.0));
  config.buffer = ByteSize::kilobytes(flags.get_double("buffer_kb", 500.0));
  config.propagation = Time::from_seconds(flags.get_double("prop_ms", 1.0) * 1e-3);
  config.warmup = Time::from_seconds(flags.get_double("warmup", 1.0));
  config.duration = Time::from_seconds(flags.get_double("duration", 4.0));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  config.shards = static_cast<int>(flags.get_count("shards", 1));
  const bool report = flags.get_bool("report", true);
  // The sweep's checkpoint flags, with a file path where the sweep takes a
  // directory.
  const SweepCheckpoint checkpoint = parse_sweep_checkpoint(flags);
  const SweepCheckpointRequest request{
      .mode = checkpoint.mode, .trigger = checkpoint.trigger, .path = checkpoint.dir};
  if (const auto unused = flags.unused(); !unused.empty()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unused.front().c_str());
    return 2;
  }

  // Run first, so a refused config prints nothing on stdout.
  const ExperimentResult result =
      run_checkpoint_request(config, request, run_fabric_experiment,
                             run_fabric_experiment_with_checkpoint, resume_fabric_experiment);
  const FabricScenario scenario = build_fabric_scenario(config);
  std::printf("%s (size %d): %zu nodes (%zu switches, %zu hosts), %zu links, %zu flows\n",
              to_string(config.topology), config.size, scenario.topo.node_count(),
              scenario.topo.switch_count(), scenario.topo.host_count(),
              scenario.topo.link_count(), scenario.bindings.size());
  if (report) std::printf("\n%s\n", scenario.plan.report(scenario.topo).c_str());

  const auto metrics = fabric_metrics(result);
  std::printf("premium:   %.2f Mb/s delivered (declared %.2f), loss %.4f%%\n",
              metrics.at("premium_mbps"), config.premium_rate.mbps(),
              metrics.at("premium_loss") * 100.0);
  std::printf("           p100 delay %.2f ms vs composed bound %.2f ms\n",
              metrics.at("premium_p100_delay_ms"), metrics.at("premium_delay_bound_ms"));
  std::printf("aggregate: %.2f Mb/s delivered; cross-traffic loss %.4f%%\n",
              metrics.at("agg_mbps"), metrics.at("cross_loss") * 100.0);
  if (BUFQ_CHECKS_ENABLED) {
    std::printf("audit:     %llu checks, %llu violations\n",
                static_cast<unsigned long long>(result.checks_run),
                static_cast<unsigned long long>(result.check_violations));
  } else {
    std::printf("audit:     off (build with -DBUFQ_CHECKS=ON to run it)\n");
  }
  return result.check_violations == 0 ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
