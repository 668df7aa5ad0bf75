#include "fabric/planner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "core/analysis.h"
#include "net/node.h"

namespace bufq::fabric {
namespace {

/// Proposition 2 threshold for an arrival envelope at a (B, R) hop,
/// rounded up so the reservation never falls short of the bound.
std::int64_t hop_threshold(const FlowSpec& arrival, const LinkParams& params) {
  return static_cast<std::int64_t>(
      std::ceil(prop2_threshold_bytes(params.buffer, arrival, params.rate)));
}

}  // namespace

ProvisionPlan plan_fabric(const Topology& topo, const RouteTable& routes,
                          const std::vector<FlowBinding>& bindings, ByteSize max_packet,
                          std::uint64_t salt) {
  ProvisionPlan plan;
  plan.links.resize(topo.link_count());
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    plan.links[l].link = static_cast<LinkId>(l);
  }

  FlowId max_flow = 0;
  for (const FlowBinding& b : bindings) max_flow = std::max(max_flow, b.flow);
  plan.flows.resize(static_cast<std::size_t>(max_flow) + 1);

  // Pass 1: pin paths, reserve guaranteed thresholds, accumulate budgets.
  for (const FlowBinding& b : bindings) {
    FlowPlan& fp = plan.flows[static_cast<std::size_t>(b.flow)];
    fp.flow = b.flow;
    fp.path = flow_path(topo, routes, b.flow, b.src, b.dst, salt);
    if (fp.path.empty() && b.src != b.dst) {
      plan.feasible = false;
      continue;
    }
    FlowSpec envelope = b.spec;
    double bound_s = 0.0;
    for (const LinkId l : fp.path) {
      const LinkParams& params = topo.link(l).params;
      LinkBudget& budget = plan.links[static_cast<std::size_t>(l)];
      if (b.guaranteed) {
        HopPlan hop;
        hop.link = l;
        hop.arrival = envelope;
        hop.threshold_bytes = hop_threshold(envelope, params);
        fp.hops.push_back(hop);
        budget.reserved_bytes += hop.threshold_bytes;
        budget.reserved_bps += envelope.rho.bps();
        ++budget.guaranteed_flows;
        envelope = output_envelope(envelope, params.buffer, params.rate);
      } else {
        ++budget.best_effort_flows;
      }
      // Worst-case residence at a capacity-B work-conserving hop plus the
      // wire: valid for every delivered packet under any scheme.
      bound_s += static_cast<double>(params.buffer.count() + max_packet.count()) * 8.0 /
                     params.rate.bps() +
                 params.propagation.to_seconds();
    }
    fp.delay_bound_s = bound_s;
  }

  // Pass 2: split each link's leftover buffer evenly across its
  // best-effort flows, and judge feasibility.
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    LinkBudget& budget = plan.links[l];
    const LinkParams& params = topo.link(static_cast<LinkId>(l)).params;
    const std::int64_t leftover =
        std::max<std::int64_t>(params.buffer.count() - budget.reserved_bytes, 0);
    if (budget.best_effort_flows > 0) {
      budget.best_effort_share_bytes = leftover / budget.best_effort_flows;
    }
    budget.feasible = budget.reserved_bytes <= params.buffer.count() &&
                      budget.reserved_bps <= params.rate.bps();
    if (!budget.feasible) plan.feasible = false;
  }

  // Pass 3: the per-link flow lists.  Pass 1 counted each link's flows,
  // so the one array is sized exactly; walking the flows in id order
  // appends each link's flows in ascending id.  A zero reservation (a
  // guaranteed flow declaring no envelope) falls back to the share.
  plan.link_flow_offsets.assign(plan.links.size() + 1, 0);
  for (std::size_t l = 0; l < plan.links.size(); ++l) {
    const LinkBudget& budget = plan.links[l];
    plan.link_flow_offsets[l + 1] =
        plan.link_flow_offsets[l] +
        static_cast<std::uint32_t>(budget.guaranteed_flows + budget.best_effort_flows);
  }
  plan.link_flow_entries.resize(plan.link_flow_offsets.back());
  std::vector<std::uint32_t> next(plan.link_flow_offsets.begin(),
                                  plan.link_flow_offsets.end() - 1);
  for (const FlowPlan& fp : plan.flows) {
    for (std::size_t h = 0; h < fp.path.size(); ++h) {
      const auto l = static_cast<std::size_t>(fp.path[h]);
      assert(next[l] < plan.link_flow_offsets[l + 1]);
      const std::int64_t reserved = fp.hops.empty() ? 0 : fp.hops[h].threshold_bytes;
      plan.link_flow_entries[next[l]++] = LinkFlow{
          fp.flow, reserved > 0 ? reserved : plan.links[l].best_effort_share_bytes};
    }
  }
  return plan;
}

std::span<const LinkFlow> ProvisionPlan::link_flows(LinkId link) const {
  assert(link >= 0 && static_cast<std::size_t>(link) + 1 < link_flow_offsets.size());
  const std::uint32_t begin = link_flow_offsets[static_cast<std::size_t>(link)];
  const std::uint32_t end = link_flow_offsets[static_cast<std::size_t>(link) + 1];
  return std::span<const LinkFlow>{link_flow_entries}.subspan(begin, end - begin);
}

std::string ProvisionPlan::report(const Topology& topo) const {
  std::ostringstream out;
  out << "fabric plan: " << flows.size() << " flows over " << links.size() << " links ("
      << (feasible ? "feasible" : "INFEASIBLE") << ")\n";
  for (const LinkBudget& budget : links) {
    if (budget.guaranteed_flows == 0 && budget.best_effort_flows == 0) continue;
    const TopoLink& l = topo.link(budget.link);
    out << "  link " << budget.link << " " << topo.node(l.from).name << "->"
        << topo.node(l.to).name << ": reserved " << budget.reserved_bytes << "/"
        << l.params.buffer.count() << " B, " << budget.reserved_bps / 1e6 << "/"
        << l.params.rate.mbps() << " Mb/s across " << budget.guaranteed_flows
        << " guaranteed";
    if (budget.best_effort_flows > 0) {
      out << "; " << budget.best_effort_flows << " best-effort @ "
          << budget.best_effort_share_bytes << " B";
    }
    out << (budget.feasible ? "" : "  [INFEASIBLE]") << "\n";
  }
  for (const FlowPlan& fp : flows) {
    if (fp.path.empty()) continue;
    out << "  flow " << fp.flow << ": " << fp.path.size() << " hops, delay bound "
        << fp.delay_bound_s * 1e3 << " ms";
    if (!fp.hops.empty()) {
      out << ", thresholds";
      for (const HopPlan& hop : fp.hops) out << " " << hop.threshold_bytes;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace bufq::fabric
