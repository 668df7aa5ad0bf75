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
// run_fabric_experiment builds the scenario once and runs it on
// expt::RunHarness (fabric_harness) — the same ScopedChecker +
// ScopedMetrics confinement, warmup snapshot, measured interval and
// checkpoint framing as expt::run_experiment — with a FabricModel, or
// with one FabricModel per shard under the sharded engine
// (fabric/parallel_engine.h).  It returns
// the same ExperimentResult, so fabric scenarios ride the sweep engine via
// SweepCase::runner (see fabric_sweep_case) with the same
// bit-identical-CSV determinism contract.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "expt/experiment.h"
#include "expt/run_harness.h"
#include "expt/sweep.h"
#include "fabric/fabric.h"
#include "fabric/planner.h"
#include "fabric/routing.h"
#include "fabric/topology.h"
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

/// One fabric run as a RunModel: a Fabric over `sc` and the sources of its
/// flows.  With a `scope` it is one shard's slice (see FabricShardScope):
/// that shard's nodes and the sources whose ingress node lives there, on
/// the shard's own clock — the sharded engine builds one per shard.  `sc`
/// and `scope` must outlive the model.
class FabricModel final : public RunModel {
 public:
  FabricModel(const FabricConfig& config, const FabricScenario& sc, Simulator& sim,
              const FabricShardScope* scope = nullptr);

  [[nodiscard]] Fabric& fabric() { return fabric_; }

  [[nodiscard]] std::vector<FlowCounters> stats_snapshot() const override {
    return fabric_.stats().snapshot();
  }
  [[nodiscard]] const DelayRecorder& delays() const override { return fabric_.delays(); }

  /// Registry order: the fabric, then the sources.
  void save_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  Fabric fabric_;
  std::vector<std::unique_ptr<Source>> sources_;
};

/// Scenario fingerprint mirroring experiment_fingerprint: every
/// FabricConfig field that shapes the event trajectory.
[[nodiscard]] std::uint64_t fabric_fingerprint(const FabricConfig& config);

/// The harness of one run over `sc`, which must be
/// build_fabric_scenario(config); both must outlive it.  Its factory picks
/// the engine: sharded when config.shards > 1 and the partition is viable
/// (parallel_viability), else serial — after a loud stderr warning and a
/// `parallel.serial_fallback` count when shards were asked for.  Extra
/// observability: the `fabric.premium_delay_bound_us` gauge carries the
/// planner's composed bound for flow 0, `fabric.plan_feasible` the
/// planner's verdict, and `fabric.e2e_delay_us` the delivered-delay
/// histogram.  Throws std::invalid_argument for shards < 1, and (from
/// RunHarness) for a non-positive duration or a negative warmup.
[[nodiscard]] RunHarness fabric_harness(const FabricConfig& config, const FabricScenario& sc);

/// Runs one fabric scenario to completion, meeting a checkpoint as
/// `request` asks (see run_request; plain by default), and packages the
/// measured interval as an ExperimentResult.  The overload with `sc`
/// takes the scenario a caller that also prints it has built once.
/// Throws std::invalid_argument for a refused scheme or shape
/// (build_fabric_scenario) and as fabric_harness does, and
/// CheckpointShardingError, before any event runs, for a checkpoint
/// request on a sharded config: per-shard calendars and boundary-channel
/// state are not serialized.
[[nodiscard]] ExperimentResult run_fabric_experiment(const FabricConfig& config,
                                                     const CheckpointRequest& request = {});
[[nodiscard]] ExperimentResult run_fabric_experiment(const FabricConfig& config,
                                                     const FabricScenario& sc,
                                                     const CheckpointRequest& request = {});

/// Metric extractor for fabric sweeps: premium throughput / loss / p100
/// delay vs. planner bound, aggregate throughput, cross-traffic loss.
[[nodiscard]] std::map<std::string, double> fabric_metrics(const ExperimentResult& result);

/// Wraps a config as a SweepCase whose runner executes
/// run_fabric_experiment with the engine-derived seed.
[[nodiscard]] SweepCase fabric_sweep_case(
    std::string label, std::vector<std::pair<std::string, std::string>> params,
    const FabricConfig& config);

}  // namespace bufq::fabric
