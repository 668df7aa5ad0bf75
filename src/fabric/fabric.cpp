#include "fabric/fabric.h"

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/invariants.h"
#include "sim/checkpoint.h"
#include "util/annotations.h"

namespace bufq::fabric {
namespace {

/// Headroom H of every kSharing port, and the kDynamicThreshold alpha.
constexpr ByteSize kSharingHeadroom = ByteSize::kilobytes(100.0);
constexpr double kDtAlpha = 1.0;

}  // namespace

void require_fabric_scheme(const FabricScheme& scheme) {
  const ManagerKind m = scheme.manager;
  if (scheme.scheduler == SchedulerKind::kHybrid || m == ManagerKind::kSelectiveSharing ||
      m == ManagerKind::kRed || m == ManagerKind::kFred) {
    throw std::invalid_argument(std::string{"a fabric port cannot run "} +
                                to_string(scheme.scheduler) + " with " + to_string(m));
  }
}

Fabric::Fabric(Simulator& sim, const Topology& topo, const RouteTable& routes,
               const ProvisionPlan& plan, const std::vector<FlowBinding>& bindings,
               const FabricScheme& scheme, const FabricShardScope* scope)
    : sim_{sim},
      topo_{topo},
      stats_{plan.flows.size()},
      delays_{plan.flows.size()},
      enforce_delay_bound_{scheme.scheduler == SchedulerKind::kFifo} {
  static_cast<void>(routes);  // paths were pinned into `plan` already
  require_fabric_scheme(scheme);
  const SchemeConfig ports{.scheduler = scheme.scheduler,
                           .manager = scheme.manager,
                           .headroom = kSharingHeadroom,
                           .dt_alpha = kDtAlpha};
  const std::size_t flow_count = plan.flows.size();

  flow_dst_.assign(flow_count, -1);
  flow_src_.assign(flow_count, -1);
  flow_bound_.assign(flow_count, Time::zero());
  // Declared envelopes by global flow id (the WFQ weights); unbound flows
  // keep rho = 0.
  std::vector<FlowSpec> specs(flow_count);
  for (const FlowBinding& b : bindings) {
    const auto f = static_cast<std::size_t>(b.flow);
    assert(f < flow_count);
    flow_dst_[f] = b.dst;
    flow_src_[f] = b.src;
    flow_bound_[f] = Time::from_seconds(plan.flows[f].delay_bound_s);
    specs[f] = b.spec;
  }

  const auto in_scope = [scope](NodeId n) { return scope == nullptr || scope->holds(n); };

  // Phase 1: nodes and egress sinks, so every link's downstream exists
  // before any port is constructed (the graph may have cycles).  Out-of-
  // scope nodes stay null: no shard-local pointer can reach state another
  // shard's worker mutates.
  nodes_.resize(topo.node_count());
  sinks_.resize(topo.node_count());
  taps_.resize(topo.node_count());
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    if (!in_scope(static_cast<NodeId>(n))) continue;
    nodes_[n] = std::make_unique<Node>(topo.node(static_cast<NodeId>(n)).name);
    if (topo.node(static_cast<NodeId>(n)).host) {
      sinks_[n] = std::make_unique<EgressSink>(*this, static_cast<NodeId>(n));
    }
  }

  // Phase 2: one OutputPort per directed link, on its tail node, in
  // out-link order (so port index == position in out_links).  Cut links
  // keep their port (queueing and transmission are tail-side state) but
  // swap the wire for the boundary seam: zero propagation into the
  // scope's boundary sink, so transmission end hands the packet straight
  // to the channel with no calendar event — the receiving shard's
  // dispatch_external() supplies the arrival event instead.
  // LinkId -> (node, port index) of the OutputPort serving it.
  std::vector<std::pair<NodeId, std::size_t>> link_port(topo.link_count(), {-1, 0});
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const auto id = static_cast<NodeId>(n);
    if (!in_scope(id)) continue;
    for (const LinkId l : topo.out_links(id)) {
      const TopoLink& link = topo.link(l);
      PacketSink* downstream = nullptr;
      Time propagation = link.params.propagation;
      if (in_scope(link.to)) {
        downstream = topo.node(link.to).host
                         ? static_cast<PacketSink*>(sinks_[static_cast<std::size_t>(link.to)].get())
                         : static_cast<PacketSink*>(nodes_[static_cast<std::size_t>(link.to)].get());
      } else {
        downstream = scope->boundary(l);
        propagation = Time::zero();
      }
      auto [manager, discipline] =
          build_port(ports, PortSpec{.buffer = link.params.buffer,
                                     .rate = link.params.rate,
                                     .flows = specs,
                                     .thresholds = plan.thresholds_for(l, flow_count)});
      auto port = std::make_unique<OutputPort>(sim_, link.params.rate, propagation,
                                               std::move(manager), std::move(discipline),
                                               downstream);
      // Every hop's drop lands in the shared collector, so per-flow loss
      // is end to end, not per multiplexer.
      port->set_drop_tap([this](const Packet& p, Time t) { stats_.on_dropped(p, t); });
      const std::size_t index = nodes_[n]->add_port(std::move(port));
      link_port[static_cast<std::size_t>(l)] = {id, index};
    }
  }

  // Phase 3: install the pinned paths as per-node routes (only the hops
  // whose tail node exists in this scope).
  for (const FlowPlan& fp : plan.flows) {
    for (const LinkId l : fp.path) {
      const auto& [node, port] = link_port[static_cast<std::size_t>(l)];
      if (node < 0) continue;
      nodes_[static_cast<std::size_t>(node)]->route(fp.flow, port);
    }
  }
}

PacketSink& Fabric::ingress(FlowId flow) {
  assert(flow >= 0 && static_cast<std::size_t>(flow) < flow_src_.size());
  const NodeId src = flow_src_[static_cast<std::size_t>(flow)];
  assert(src >= 0);
  auto& tap = taps_[static_cast<std::size_t>(src)];
  if (tap == nullptr) {
    tap = std::make_unique<OfferedTrafficTap>(stats_, *nodes_[static_cast<std::size_t>(src)]);
  }
  return *tap;
}

PacketSink& Fabric::arrival_sink(LinkId link) {
  assert(link >= 0 && static_cast<std::size_t>(link) < topo_.link_count());
  const NodeId head = topo_.link(link).to;
  if (topo_.node(head).host) {
    assert(sinks_[static_cast<std::size_t>(head)] != nullptr);
    return *sinks_[static_cast<std::size_t>(head)];
  }
  assert(nodes_[static_cast<std::size_t>(head)] != nullptr);
  return *nodes_[static_cast<std::size_t>(head)];
}

void Fabric::save_state(CheckpointWriter& w) const {
  stats_.save_state(w);
  delays_.save_state(w);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n] == nullptr) continue;  // out-of-scope (sharded builds never checkpoint)
    nodes_[n]->save_state(w, n);
  }
}

void Fabric::restore_state(CheckpointReader& r) {
  stats_.restore_state(r);
  delays_.restore_state(r);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n] == nullptr) continue;
    nodes_[n]->restore_state(r, n);
  }
}

BUFQ_HOT void Fabric::EgressSink::accept(const Packet& packet) {
  Fabric& f = fabric_;
  const auto flow = static_cast<std::size_t>(packet.flow);
  if (packet.flow < 0 || flow >= f.flow_dst_.size() || f.flow_dst_[flow] != self_) {
    f.misrouted_metric_.add();
    return;
  }
  const Time now = f.sim_.now();
  f.stats_.on_delivered(packet, now);
  // FNV-1a over the delivery tuple; counters sum mod 2^64, so the audit
  // digest is order-independent and shard merges reproduce serial.  The
  // audit's basis is FNV's with its last decimal digit dropped, as it has
  // always been: perfbench/reference_digests.txt pins the sums it gives.
  FingerprintHasher digest{1469598103934665603ULL};
  digest.mix_i64(packet.flow);
  digest.mix_i64(packet.size_bytes);
  digest.mix_time(packet.created);
  digest.mix_time(now);
  digest.mix_i64(self_);
  f.egress_audit_metric_.add(digest.digest());
  const Time delay = now - packet.created;
  f.e2e_delay_metric_.record(delay.ns() / 1'000);
  if (now >= f.measure_from_) f.delays_.record(packet, now);
  if (f.enforce_delay_bound_ && f.flow_bound_[flow] > Time::zero()) {
    // The planner's composed FIFO bound holds for every delivered packet,
    // warmup included — no gating.
    BUFQ_CHECK(delay <= f.flow_bound_[flow],
               check::Invariant::kDelayBound, packet.flow, now, delay.to_seconds(),
               f.flow_bound_[flow].to_seconds(),
               "delivered packet exceeded composed end-to-end delay bound");
  }
}

}  // namespace bufq::fabric
