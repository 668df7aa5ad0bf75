// Parallel (sharded) execution of one fabric scenario.
//
// run_parallel_fabric_experiment() runs the exact scenario
// run_fabric_experiment() runs serially, but partitioned by a
// fabric::ShardPlan: each shard owns a private Simulator and a Fabric
// built under a FabricShardScope (only that shard's nodes/ports exist),
// runs on its own thread (util/task_pool's parallel_for), and advances in
// conservative lookahead windows coordinated by sim/parallel.h.
// Cross-shard packets ride sim/shard.h BoundaryChannels: the cut link's
// tail port transmits into a BoundarySender (zero-propagation seam, no
// calendar event), the coordinator exchanges and orders the events at the
// window barrier, and the destination shard injects each one with
// Simulator::dispatch_external at its stamped arrival time — the same
// single event, the same clock advance, the same kEventClock check the
// serial wire arrival would have produced.
//
// Contract: for the built-in scenarios (uniform per-link propagation,
// so every pair of wire arrivals converging at equal timestamps was
// scheduled at the same serial instant) the merged result is
// bit-identical to serial — per-flow counters, delay summaries, the
// fabric.egress_audit digest, sim.events, drop counters and the
// e2e-delay histogram.  The differential suite
// (tests/parallel_diff_test.cpp) enforces this at shards 1/2/4/8 on all
// four topologies.  Wall-clock metrics (sim.wall_ns), per-shard
// diagnostics (parallel.*), gauge last-values and the sampled
// sim.calendar_depth histogram are outside the contract.
#pragma once

#include <string>

#include "expt/experiment.h"
#include "fabric/scenario.h"
#include "fabric/shard_plan.h"

namespace bufq::fabric {

/// Why a config/plan pair can or cannot run sharded.
struct ParallelViability {
  bool viable{false};
  /// Human-readable reason when not viable (for the fallback warning).
  std::string reason;
};

/// A sharded run needs: shards >= 2 after clamping, a positive conservative
/// lookahead (no zero-propagation cut links, at least one cut link), and a
/// positive warmup (the warmup barrier doubles as the stats sync point).
[[nodiscard]] ParallelViability parallel_viability(const FabricConfig& config,
                                                   const ShardPlan& plan);

/// Runs `config`'s scenario on plan.shards workers.  `sc` must be
/// build_fabric_scenario(config) and `plan` shard_plan(sc.topo,
/// config.shards); parallel_viability(config, plan).viable must hold.
/// Throws std::runtime_error when a shard worker fails.
[[nodiscard]] ExperimentResult run_parallel_fabric_experiment(const FabricConfig& config,
                                                              const FabricScenario& sc,
                                                              const ShardPlan& plan);

}  // namespace bufq::fabric
