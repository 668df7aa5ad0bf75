// Parallel (sharded) execution of one fabric scenario.
//
// A sharded run is the serial run's RunModel contract met by many
// clocks: run_fabric_experiment's harness factory builds a sharded model
// when config.shards > 1 and the partition is viable, and
// RunHarness::finish() completes it like every other run.  Each shard of
// a fabric::ShardPlan is the serial FabricModel restricted by its
// FabricShardScope (only that shard's nodes/ports and sources exist),
// built over the one FabricScenario on a private Simulator, checker and
// registry, on its own thread (util/task_pool's parallel_for), and the
// shards advance in conservative lookahead windows coordinated by
// sim/parallel.h.  Cross-shard packets ride sim/shard.h BoundaryChannels:
// the cut link's tail port transmits into a BoundarySender
// (zero-propagation seam, no calendar event), the coordinator exchanges
// and orders the events at the window barrier, and the destination shard
// injects each one with Simulator::dispatch_external at its stamped
// arrival time — the same single event, the same clock advance, the same
// kEventClock check the serial wire arrival would have produced.
//
// The warmup barrier is handed to the calling thread, which runs the
// harness's own warmup event — the one a serial run has — while every
// shard is parked at exactly the serial snapshot point.  After the join
// the calling thread folds the shards' registries, checker tallies, flow
// counters and delay recorders into the harness's; no shard thread ever
// records into them.
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

#include <memory>
#include <string>

#include "expt/run_harness.h"
#include "fabric/scenario.h"
#include "fabric/shard_plan.h"
#include "obs/metrics.h"

namespace bufq::fabric {

/// Why a config/plan pair can or cannot run sharded.
struct ParallelViability {
  bool viable{false};
  /// Human-readable reason when not viable (for the fallback warning).
  std::string reason;
};

/// A sharded run needs: shards >= 2 after clamping, a positive conservative
/// lookahead (no zero-propagation cut links, at least one cut link), and a
/// positive warmup (the warmup barrier is where the harness snapshots).
[[nodiscard]] ParallelViability parallel_viability(const FabricConfig& config,
                                                   const ShardPlan& plan);

/// The sharded run of `config` over `sc` as a RunModel for a RunHarness
/// whose registry is `registry`: one scoped FabricModel per shard of
/// `plan`, built, run and torn down on that shard's worker thread inside
/// RunModel::run.  A shard's exception reaches the caller of
/// RunHarness::finish() unchanged in type (the lowest-numbered failing
/// shard's).  `sc` must outlive the model, `plan` must be
/// shard_plan(sc.topo, config.shards) and parallel_viability(config,
/// plan).viable must hold.  Cannot checkpoint: save_state / restore_state
/// throw CheckpointShardingError.
[[nodiscard]] std::unique_ptr<RunModel> make_sharded_fabric_model(
    const FabricConfig& config, const FabricScenario& sc, ShardPlan plan,
    obs::MetricsRegistry& registry);

}  // namespace bufq::fabric
