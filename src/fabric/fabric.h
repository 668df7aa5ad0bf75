// Fabric: instantiates a Topology as live net/node machinery.
//
// Construction is two-phase because the graph may contain cycles (duplex
// links): first a Node per topology node and an egress sink per host,
// then one OutputPort per directed link on its tail node, wired to the
// head node's ingress — or, for links into hosts, to the host's egress
// sink.  Each port is built over one slot per flow the plan routes across
// its link (ProvisionPlan::link_flows), and the tail node routes exactly
// those flows, so every flow is pinned to its ECMP path at build time and
// per-port and per-node state is O(sum of path lengths), not O(flows) per
// port.
//
// End-to-end tracking: sources stamp packets at ingress (Packet::created);
// the egress sink records per-flow delivery and delay into a shared
// StatsCollector / DelayRecorder, exports an `fabric.e2e_delay_us`
// histogram through obs, and — for FIFO schemes — audits every delivered
// packet against the planner's composed delay bound
// (Invariant::kDelayBound).  Per-port drops feed the same collector, so
// a flow's loss is visible no matter which hop dropped it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "expt/experiment.h"
#include "fabric/planner.h"
#include "fabric/routing.h"
#include "fabric/topology.h"
#include "net/node.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "stats/collector.h"
#include "stats/delay.h"

namespace bufq::fabric {

/// The scheduler/manager pair every hop of the fabric runs, in the shared
/// scheme vocabulary.  Hybrid queues, selective sharing, RED and FRED are
/// single-link schemes: require_fabric_scheme refuses them.
struct FabricScheme {
  SchedulerKind scheduler{SchedulerKind::kFifo};
  ManagerKind manager{ManagerKind::kThreshold};
};

/// Throws std::invalid_argument for a scheme a fabric port cannot run (the
/// planner provisions thresholds for FIFO and WFQ hops only).  The Fabric
/// constructor and build_fabric_scenario both call it.
void require_fabric_scheme(const FabricScheme& scheme);

/// Former names of the shared enums, kept only because the benchmark
/// package still spells them (perfbench/src/workloads.cpp).
using FabricScheduler = SchedulerKind;
using FabricManager = ManagerKind;

/// Restriction of a Fabric build to one shard of a partition (the
/// parallel engine, fabric/parallel_engine.h).  Nodes assigned to other shards
/// are not instantiated; ports serving cut links (head in another shard)
/// are built with zero propagation feeding `boundary(link)` — the
/// channel seam — instead of a simulated wire.  Zero propagation makes
/// OutputPort hand the packet straight to the sink at transmission end
/// (no calendar event, no wire gauge), so the receiving shard's
/// dispatch_external() is the run's one and only event for the crossing,
/// exactly as in serial.
struct FabricShardScope {
  /// NodeId -> shard (fabric::ShardPlan::node_shard); must outlive the
  /// fabric.
  const std::vector<int>* node_shard{nullptr};
  int shard{0};
  /// Sink absorbing packets that leave the shard over `link`; must
  /// outlive the fabric.
  std::function<PacketSink*(LinkId)> boundary;

  /// Whether `node` is built in this shard.
  [[nodiscard]] bool holds(NodeId node) const {
    return (*node_shard)[static_cast<std::size_t>(node)] == shard;
  }
};

class Fabric {
 public:
  /// Builds nodes, ports, sinks and routes.  `plan` must come from
  /// plan_fabric over the same topology/routes/bindings (its paths ARE the
  /// installed routes).  Construct any ScopedMetrics/ScopedChecker before
  /// the fabric so metric handles resolve.  All references must outlive
  /// the fabric.  With a `scope`, only that shard's slice is built (see
  /// FabricShardScope); ingress() may then only be called for flows
  /// whose source node is in the shard.
  Fabric(Simulator& sim, const Topology& topo, const RouteTable& routes,
         const ProvisionPlan& plan, const std::vector<FlowBinding>& bindings,
         const FabricScheme& scheme, const FabricShardScope* scope = nullptr);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Where a source for `flow` injects: an offered-traffic tap in front of
  /// the flow's declared src node.
  [[nodiscard]] PacketSink& ingress(FlowId flow);

  /// Delay/loss accounting starts at `t` (warmup exclusion) — delivery
  /// and drop *counters* always run; only DelayRecorder entries are gated.
  void set_measure_from(Time t) { measure_from_ = t; }

  /// Whether deliveries are recorded into delays() at all (default on).  A
  /// run that reports no delays turns it off and keeps no delay records.
  void set_record_delays(bool on) { record_delays_ = on; }

  [[nodiscard]] const StatsCollector& stats() const { return stats_; }
  [[nodiscard]] const DelayRecorder& delays() const { return delays_; }

  /// The live node for `id`, or null when it is out of this build's scope.
  [[nodiscard]] const Node* node(NodeId id) const;

  /// Where a packet arriving over `link` is delivered: the head host's
  /// egress sink, or the head node.  This is the receiving end of the
  /// boundary seam — the parallel engine dispatches cross-shard packets
  /// here, which is byte-for-byte the sink a serial wire would feed.
  /// The head node must be in scope.
  [[nodiscard]] PacketSink& arrival_sink(LinkId link);

  /// Checkpointable: end-to-end stats/delays, then every node (and its
  /// ports, managers, disciplines and links) in NodeId order.
  void save_state(CheckpointWriter& w) const;
  void restore_state(CheckpointReader& r);

 private:
  /// Terminates traffic at one host: records delivery, delay and the
  /// end-to-end bound audit.
  class EgressSink final : public PacketSink {
   public:
    EgressSink(Fabric& fabric, NodeId self) : fabric_{fabric}, self_{self} {}
    void accept(const Packet& packet) override;

   private:
    Fabric& fabric_;
    NodeId self_;
  };

  Simulator& sim_;
  const Topology& topo_;
  StatsCollector stats_;
  DelayRecorder delays_;
  Time measure_from_{Time::zero()};
  bool record_delays_{true};
  /// Per-flow: declared egress node and planner delay bound (ns, 0 = no
  /// bound / unrouted).
  std::vector<NodeId> flow_dst_;
  std::vector<Time> flow_bound_;
  std::vector<NodeId> flow_src_;
  std::vector<std::unique_ptr<Node>> nodes_;              ///< by NodeId
  std::vector<std::unique_ptr<EgressSink>> sinks_;        ///< by NodeId, hosts only
  std::vector<std::unique_ptr<OfferedTrafficTap>> taps_;  ///< by NodeId, src nodes only
  bool enforce_delay_bound_{false};
  obs::HistogramHandle e2e_delay_metric_{obs::HistogramHandle::lookup("fabric.e2e_delay_us")};
  obs::CounterHandle misrouted_metric_{obs::CounterHandle::lookup("fabric.misrouted")};
  /// Order-independent egress audit trail: an FNV-1a digest of every
  /// delivered packet's (flow, size, created, delivered, egress node),
  /// summed mod 2^64.  Commutative, so shard merges reproduce the serial
  /// value exactly; any divergence in what was delivered or when shows up
  /// as a different counter.
  obs::CounterHandle egress_audit_metric_{obs::CounterHandle::lookup("fabric.egress_audit")};
};

}  // namespace bufq::fabric
