// End-to-end provisioning: from declared (sigma, rho) envelopes to per-hop
// buffer thresholds and a composed delay bound.
//
// For each guaranteed flow the planner walks its ECMP-pinned path and, at
// every hop, reserves the threshold the paper's Proposition 2 assigns to
// the flow's *arrival* envelope at that hop:
//
//     T_h = sigma_h + rho * B_h / R_h
//
// then inflates the envelope for the next hop with `output_envelope`
// (sigma_{h+1} = sigma_h + rho * B_h / R_h), the network-calculus
// burst-growth rule for a FIFO element that delays any bit by at most
// B_h / R_h.  A link is feasible when the guaranteed reservations fit the
// buffer and the guaranteed rates fit the link; best-effort flows split
// the leftover buffer evenly so the per-link threshold sum never exceeds
// B and the guarantees survive arbitrary cross traffic.
//
// The composed per-flow delay bound holds for FIFO hops (the paper's
// scheme) under any admission policy: a packet admitted to a FIFO whose
// total backlog is capped at B_h has at most B_h bytes ahead of it plus
// the residual of the packet on the wire (< L), and the link is work
// conserving at R_h, so its residence is below (B_h + L) / R_h.  Summing,
//
//     D(flow) <= sum over hops of ((B_h + L) / R_h + propagation_h)
//
// with L the maximum packet size.  Egress sinks BUFQ_CHECK every
// delivered packet against this bound (Invariant::kDelayBound) when the
// fabric runs FIFO disciplines; under WFQ a low-weight flow may legally
// exceed it, so the check is not installed there.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/flow_spec.h"
#include "fabric/routing.h"
#include "fabric/topology.h"
#include "sim/packet.h"

namespace bufq::fabric {

/// One flow's declaration to the planner: endpoints, envelope, and whether
/// it wants a lossless reservation (guaranteed) or only a fair share of
/// leftover buffer (best effort).
struct FlowBinding {
  FlowId flow{0};
  NodeId src{-1};
  NodeId dst{-1};
  FlowSpec spec;
  bool guaranteed{false};
};

/// A guaranteed flow's reservation at one hop of its path.
struct HopPlan {
  LinkId link{-1};
  /// Arrival envelope at this hop (inflated by the upstream hops).
  FlowSpec arrival;
  /// Reserved occupancy threshold: arrival.sigma + rho * B/R.
  std::int64_t threshold_bytes{0};
};

/// The planner's verdict for one flow.
struct FlowPlan {
  FlowId flow{0};
  std::vector<LinkId> path;  ///< ECMP-pinned links, ingress to egress
  std::vector<HopPlan> hops;  ///< per-hop reservations (guaranteed flows only)
  /// Composed end-to-end delay bound (seconds) for FIFO hops: every
  /// delivered packet's ingress-to-egress delay stays below this under
  /// any admission policy (see the file comment).
  double delay_bound_s{0.0};
};

/// Aggregate budget of one link across all flows routed over it.
struct LinkBudget {
  LinkId link{-1};
  std::int64_t reserved_bytes{0};  ///< sum of guaranteed thresholds
  double reserved_bps{0.0};        ///< sum of guaranteed rates
  std::int64_t best_effort_share_bytes{0};  ///< per-BE-flow leftover share
  int guaranteed_flows{0};
  int best_effort_flows{0};
  /// Reservations fit the buffer and the guaranteed rates fit the link.
  bool feasible{true};
};

/// One flow routed over a link, with the threshold provisioned for it
/// there.
struct LinkFlow {
  FlowId flow{0};
  std::int64_t threshold_bytes{0};
};

struct ProvisionPlan {
  std::vector<FlowPlan> flows;    ///< indexed by FlowId
  std::vector<LinkBudget> links;  ///< indexed by LinkId
  bool feasible{true};            ///< all links feasible, all flows routed
  /// Every link's flow list, in one array: link l's flows are
  /// link_flow_entries[link_flow_offsets[l] .. link_flow_offsets[l + 1]).
  std::vector<std::uint32_t> link_flow_offsets;
  std::vector<LinkFlow> link_flow_entries;

  /// The flows routed over `link`, in ascending flow id, each with its
  /// threshold there: a guaranteed flow gets its reservation, a
  /// best-effort flow the link's share of the leftover.  This is the
  /// order of the link's port slots.  Valid while the plan lives.
  [[nodiscard]] std::span<const LinkFlow> link_flows(LinkId link) const;

  /// Human-readable per-hop budget report.
  [[nodiscard]] std::string report(const Topology& topo) const;
};

/// Walks every binding's ECMP path (pinned with `salt`) and produces the
/// per-hop reservations, per-link budgets and per-flow delay bounds.
/// `max_packet` is the L in the (B + L)/R per-hop delay term.
[[nodiscard]] ProvisionPlan plan_fabric(const Topology& topo, const RouteTable& routes,
                                        const std::vector<FlowBinding>& bindings,
                                        ByteSize max_packet, std::uint64_t salt);

}  // namespace bufq::fabric
