// Canned end-to-end fabric scenarios and their experiment-pipeline entry
// points.
//
// Every scenario has the same cast: one *premium* flow (flow 0) with a
// declared (sigma, rho) envelope and a planner-provisioned lossless
// reservation along its path, plus best-effort cross traffic sized by
// `load` that congests the links the premium flow crosses.  Parking lots
// use greedy per-hop cross flows (the chain analogue of Example 1);
// the datacenter/WAN shapes use Markov ON-OFF host pairs.
//
// run_fabric_experiment runs the fabric as a model of expt::RunHarness —
// the same ScopedChecker + ScopedMetrics confinement, warmup snapshot,
// measured interval and checkpoint framing as expt::run_experiment — and
// returns the same ExperimentResult, so fabric scenarios ride the sweep
// engine via SweepCase::runner (see fabric_sweep_case) with the same
// bit-identical-CSV determinism contract.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "expt/experiment.h"
#include "expt/sweep.h"
#include "fabric/fabric.h"
#include "fabric/planner.h"
#include "fabric/routing.h"
#include "fabric/topology.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "traffic/sources.h"

namespace bufq::fabric {

enum class FabricTopologyKind {
  kParkingLot,  ///< size = managed hops on the premium path
  kLeafSpine,   ///< size = leaves (= spines); hosts_per_leaf hosts each
  kFatTree,     ///< size = k (even)
  kWanRing,     ///< size = routers; 1 host each
};

[[nodiscard]] const char* to_string(FabricTopologyKind kind);

struct FabricConfig {
  FabricTopologyKind topology{FabricTopologyKind::kParkingLot};
  /// Shape parameter, see FabricTopologyKind.
  int size{5};
  FabricScheme scheme;
  /// Uniform link parameters (every link of the shape).
  Rate link_rate{Rate::megabits_per_second(48.0)};
  ByteSize buffer{ByteSize::kilobytes(500.0)};
  Time propagation{Time::milliseconds(1)};
  /// Cross-traffic intensity: each cross flow offers `load * link_rate`
  /// (parking lot, greedy) or averages `load * link_rate / 2` (ON-OFF).
  double load{1.0};
  /// Premium flow's declared token rate.  The default keeps the planner
  /// feasible on every built-in shape: burst inflation adds
  /// rho * B / R per hop, so rho / R = 1/8 tolerates up to ~7 hops of a
  /// 500 KB / 48 Mb/s chain before sigma + rho * B / R would outgrow B.
  Rate premium_rate{Rate::megabits_per_second(6.0)};
  Time warmup{Time::seconds(1)};
  Time duration{Time::seconds(4)};
  std::uint64_t seed{1};
  std::int64_t packet_bytes{500};
  bool record_delays{true};
  /// Hosts per leaf switch (kLeafSpine only).  Scales traffic density
  /// without adding switches — the parallel bench uses it to give each
  /// shard enough work per lookahead window to amortize the barrier.
  int hosts_per_leaf{2};
  /// Parallel execution: partition the fabric into this many shards
  /// (clamped to the switch count) and run them, one thread each, in
  /// conservative lookahead windows.  1 = serial.  The output is
  /// bit-identical to serial, so this is an execution strategy, not a
  /// scenario parameter — it is deliberately NOT part of
  /// fabric_fingerprint().  Partitions with zero-propagation cut links
  /// fall back to serial with a loud warning.
  int shards{1};
};

/// The declarative half of a scenario: topology, routes, flow bindings
/// and the provisioning plan (paths pinned with salt = seed).  Pure
/// function of the config — tests inspect it without running anything.
struct FabricScenario {
  Topology topo;
  RouteTable routes;
  std::vector<FlowBinding> bindings;
  ProvisionPlan plan;
  FlowId premium{0};
  std::vector<FlowId> cross;
};

/// Throws std::invalid_argument for a scheme a fabric port cannot run
/// (require_fabric_scheme) and for a shape the generators cannot build:
/// parking_lot or leaf_spine below size 2, leaf_spine without hosts, a
/// fat_tree k that is odd or below 2, a wan_ring below 3 routers.
[[nodiscard]] FabricScenario build_fabric_scenario(const FabricConfig& config);

/// Builds and starts the sources of the flows `lives_here` accepts, in the
/// one construction order serial and sharded runs share: the premium CBR
/// source, then the cross flows in binding order (all built, then all
/// started).  ON-OFF sources fork the seed's stream by flow id, so a
/// source's arrival process is a pure function of (seed, flow), never of
/// the shard layout.
[[nodiscard]] std::vector<std::unique_ptr<Source>> make_fabric_sources(
    Simulator& sim, Fabric& fabric, const FabricConfig& config, const FabricScenario& sc,
    const std::function<bool(FlowId)>& lives_here);

/// Exports the planner's verdict so sweep extractors (and the bench JSON)
/// can compare measured p100 against it without re-planning: the premium
/// flow's composed bound as `fabric.premium_delay_bound_us`, and
/// `fabric.plan_feasible`.
void publish_plan_gauges(obs::MetricsRegistry& registry, const ProvisionPlan& plan);

/// Runs one fabric scenario to completion and packages the measured
/// interval as an ExperimentResult.  Extra observability: the
/// `fabric.premium_delay_bound_us` gauge carries the planner's composed
/// bound for flow 0, and `fabric.e2e_delay_us` the delivered-delay
/// histogram.
[[nodiscard]] ExperimentResult run_fabric_experiment(const FabricConfig& config);

/// Scenario fingerprint mirroring experiment_fingerprint: every
/// FabricConfig field that shapes the event trajectory.
[[nodiscard]] std::uint64_t fabric_fingerprint(const FabricConfig& config);

/// run_fabric_experiment with a mid-run snapshot, mirroring
/// run_experiment_with_checkpoint (same CheckpointTrigger semantics).
/// Sharded runs cannot checkpoint: throws CheckpointShardingError when
/// config.shards > 1 (run serial to checkpoint).
[[nodiscard]] CheckpointedRun run_fabric_experiment_with_checkpoint(
    const FabricConfig& config, const CheckpointTrigger& trigger = {});

/// Restores a run_fabric_experiment_with_checkpoint snapshot into a fresh
/// fabric for `config` and runs to completion; bit-identical to the run
/// that wrote it.  Throws a CheckpointError subclass on corruption or a
/// scenario mismatch.
[[nodiscard]] ExperimentResult resume_fabric_experiment(const FabricConfig& config,
                                                        std::span<const std::byte> checkpoint);

/// Metric extractor for fabric sweeps: premium throughput / loss / p100
/// delay vs. planner bound, aggregate throughput, cross-traffic loss.
[[nodiscard]] std::map<std::string, double> fabric_metrics(const ExperimentResult& result);

/// Wraps a config as a SweepCase whose runner executes
/// run_fabric_experiment with the engine-derived seed.
[[nodiscard]] SweepCase fabric_sweep_case(
    std::string label, std::vector<std::pair<std::string, std::string>> params,
    const FabricConfig& config);

}  // namespace bufq::fabric
