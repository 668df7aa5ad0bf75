// Differential suite for the fabric's set-up data structures: the flat
// route table against a brute-force BFS reference; port-local flow slots
// against the planner's paths (per-port and per-node state is O(sum of
// path lengths)); and the per-flow outcome of short leaf-spine runs pinned
// to the values the fabric gave when every port still held state for
// every flow of the run, which says that the slot mapping changed no
// admission, no WFQ tie and no delivery.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/buffer_manager.h"
#include "expt/experiment.h"
#include "fabric/fabric.h"
#include "fabric/routing.h"
#include "fabric/scenario.h"
#include "fabric/topology.h"
#include "sim/checkpoint.h"

namespace bufq::fabric {
namespace {

const LinkParams kLink{};

// ---------------------------------------------------------------------------
// Route table vs. brute force.

/// Hop distance from every node to every node, by one forward BFS per
/// source over the out-links: [src][dst], -1 when unreachable.
std::vector<std::vector<int>> all_pairs_distances(const Topology& topo) {
  const std::size_t n = topo.node_count();
  std::vector<std::vector<int>> dist(n, std::vector<int>(n, -1));
  for (std::size_t s = 0; s < n; ++s) {
    dist[s][s] = 0;
    std::deque<NodeId> frontier{static_cast<NodeId>(s)};
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop_front();
      for (const LinkId l : topo.out_links(v)) {
        const auto w = static_cast<std::size_t>(topo.link(l).to);
        if (dist[s][w] == -1) {
          dist[s][w] = dist[s][static_cast<std::size_t>(v)] + 1;
          frontier.push_back(static_cast<NodeId>(w));
        }
      }
    }
  }
  return dist;
}

void expect_table_matches_brute_force(const Topology& topo, const std::string& label) {
  SCOPED_TRACE(label);
  const RouteTable routes = RouteTable::shortest_paths(topo);
  const auto dist = all_pairs_distances(topo);
  const std::size_t n = topo.node_count();
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t d = 0; d < n; ++d) {
      const auto node = static_cast<NodeId>(u);
      const auto dst = static_cast<NodeId>(d);
      ASSERT_EQ(routes.distance(node, dst), dist[u][d]) << u << " -> " << d;
      // Every out-link whose head is one hop closer, in ascending id order.
      std::vector<LinkId> expected;
      if (u != d && dist[u][d] > 0) {
        for (std::size_t l = 0; l < topo.link_count(); ++l) {
          const TopoLink& link = topo.link(static_cast<LinkId>(l));
          if (link.from != node) continue;
          const int rest = dist[static_cast<std::size_t>(link.to)][d];
          if (rest != -1 && rest == dist[u][d] - 1) expected.push_back(static_cast<LinkId>(l));
        }
      }
      const auto hops = routes.next_hops(node, dst);
      const std::vector<LinkId> got(hops.begin(), hops.end());
      ASSERT_EQ(got, expected) << u << " -> " << d;
    }
  }
}

TEST(FlatRouteTableTest, NextHopsMatchBruteForceBfs) {
  expect_table_matches_brute_force(make_leaf_spine(4, 4, 2, kLink, kLink).topo, "leaf_spine");
  expect_table_matches_brute_force(make_fat_tree(4, kLink, kLink).topo, "fat_tree k=4");
  expect_table_matches_brute_force(make_wan_ring(6, kLink, kLink).topo, "wan_ring");
  expect_table_matches_brute_force(make_parking_lot(5, kLink, kLink).topo, "parking_lot");
  // Nodes with one out-link answer through their neighbour: here three of
  // them form a directed cycle, which never meets the node with no
  // out-link, and a two-link node feeds both.
  Topology odd;
  const NodeId a = odd.add_switch("a");
  const NodeId b = odd.add_switch("b");
  const NodeId c = odd.add_switch("c");
  const NodeId sink = odd.add_host("sink");
  const NodeId fork = odd.add_switch("fork");
  odd.add_link(a, b, kLink);
  odd.add_link(b, c, kLink);
  odd.add_link(c, a, kLink);
  odd.add_link(fork, a, kLink);
  odd.add_link(fork, sink, kLink);
  expect_table_matches_brute_force(odd, "single-link cycle");
}

// ---------------------------------------------------------------------------
// Port-local flow slots.

/// Every port holds exactly one slot per flow whose path crosses its link,
/// in ascending flow id, so the slots summed over all ports equal the sum
/// of the path lengths; every node routes exactly the flows that leave
/// through one of its ports, each to that port.
void expect_slots_follow_paths(const FabricConfig& config, const std::string& label) {
  SCOPED_TRACE(label);
  const FabricScenario sc = build_fabric_scenario(config);
  Simulator sim;
  const Fabric fabric{sim, sc.topo, sc.routes, sc.plan, sc.bindings, config.scheme};

  // Per node: flow -> the out-link its path leaves the node by.
  std::vector<std::map<FlowId, LinkId>> carried(sc.topo.node_count());
  std::size_t path_sum = 0;
  for (const FlowPlan& fp : sc.plan.flows) {
    path_sum += fp.path.size();
    for (const LinkId l : fp.path) {
      carried[static_cast<std::size_t>(sc.topo.link(l).from)][fp.flow] = l;
    }
  }

  std::size_t slots = 0;
  for (std::size_t n = 0; n < sc.topo.node_count(); ++n) {
    const auto id = static_cast<NodeId>(n);
    const Node* node = fabric.node(id);
    ASSERT_NE(node, nullptr);
    const std::vector<LinkId>& out = sc.topo.out_links(id);
    ASSERT_EQ(node->port_count(), out.size());
    for (std::size_t p = 0; p < out.size(); ++p) {
      const OutputPort& port = node->port(p);
      const auto* manager = dynamic_cast<const AccountingBufferManager*>(&port.manager());
      ASSERT_NE(manager, nullptr);
      EXPECT_EQ(manager->flow_count(), port.flows().size());
      slots += manager->flow_count();
      std::vector<FlowId> expected;
      for (const auto& [flow, link] : carried[n]) {
        if (link == out[p]) expected.push_back(flow);
      }
      EXPECT_EQ(std::vector<FlowId>(port.flows().begin(), port.flows().end()), expected)
          << "node " << n << " port " << p;
    }
    EXPECT_EQ(node->routed_flows(), carried[n].size()) << "node " << n;
    for (const FlowBinding& b : sc.bindings) {
      const auto it = carried[n].find(b.flow);
      std::int64_t expected_port = -1;
      if (it != carried[n].end()) {
        for (std::size_t p = 0; p < out.size(); ++p) {
          if (out[p] == it->second) expected_port = static_cast<std::int64_t>(p);
        }
      }
      EXPECT_EQ(node->port_of(b.flow), expected_port) << "node " << n << " flow " << b.flow;
    }
  }
  EXPECT_EQ(slots, path_sum);
}

TEST(PortSlotTest, SlotsSumToPathLengthsOnEveryShape) {
  const struct {
    FabricTopologyKind topology;
    int size;
    const char* name;
  } shapes[] = {
      {FabricTopologyKind::kParkingLot, 4, "parking_lot"},
      {FabricTopologyKind::kLeafSpine, 4, "leaf_spine"},
      {FabricTopologyKind::kFatTree, 4, "fat_tree"},
      {FabricTopologyKind::kWanRing, 6, "wan_ring"},
  };
  for (const auto& shape : shapes) {
    FabricConfig config;
    config.topology = shape.topology;
    config.size = shape.size;
    expect_slots_follow_paths(config, shape.name);
    config.scheme = FabricScheme{.scheduler = SchedulerKind::kWfq,
                                 .manager = ManagerKind::kDynamicThreshold};
    expect_slots_follow_paths(config, std::string{shape.name} + " wfq+dt");
  }
}

// ---------------------------------------------------------------------------
// Pinned per-flow outcomes.

/// What a run's outcome is pinned by: an FNV-1a digest over every flow's
/// six counters, the delivered and dropped totals, and the event and
/// egress-audit counters.
struct Outcome {
  std::uint64_t counters_digest{0};
  std::uint64_t delivered_packets{0};
  std::uint64_t dropped_packets{0};
  std::uint64_t events{0};
  std::uint64_t egress_audit{0};

  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Outcome& o) {
  return out << "{0x" << std::hex << o.counters_digest << std::dec << "ull, "
             << o.delivered_packets << ", " << o.dropped_packets << ", " << o.events << ", 0x"
             << std::hex << o.egress_audit << std::dec << "ull}";
}

std::uint64_t counter(const ExperimentResult& r, const std::string& name) {
  const auto it = r.metrics.counters.find(name);
  return it == r.metrics.counters.end() ? 0u : it->second;
}

Outcome outcome_of(const ExperimentResult& r) {
  Outcome o;
  FingerprintHasher h;
  for (const FlowCounters& c : r.per_flow) {
    h.mix_i64(c.offered_bytes);
    h.mix_i64(c.delivered_bytes);
    h.mix_i64(c.dropped_bytes);
    h.mix_u64(c.offered_packets);
    h.mix_u64(c.delivered_packets);
    h.mix_u64(c.dropped_packets);
    o.delivered_packets += c.delivered_packets;
    o.dropped_packets += c.dropped_packets;
  }
  o.counters_digest = h.digest();
  o.events = counter(r, "sim.events");
  o.egress_audit = counter(r, "fabric.egress_audit");
  return o;
}

/// A short congested leaf-spine: 4 leaves x 4 hosts, every host pair at
/// full load, so the thresholds drop and the WFQ finish stamps tie.
FabricConfig pinned_config(SchedulerKind scheduler, ManagerKind manager) {
  FabricConfig config;
  config.topology = FabricTopologyKind::kLeafSpine;
  config.size = 4;
  config.hosts_per_leaf = 4;
  config.scheme = FabricScheme{.scheduler = scheduler, .manager = manager};
  config.load = 1.0;
  config.buffer = ByteSize::kilobytes(100.0);
  config.warmup = Time::milliseconds(50);
  config.duration = Time::milliseconds(200);
  config.seed = 7;
  return config;
}

TEST(FabricPinnedOutcomeTest, FifoThresholdLeafSpine) {
  const ExperimentResult r =
      run_fabric_experiment(pinned_config(SchedulerKind::kFifo, ManagerKind::kThreshold));
  const Outcome pinned{0x5d9d8df96c0da55eull, 17475, 1072, 199185, 0xd17fdacb6aff0906ull};
  EXPECT_EQ(outcome_of(r), pinned);
}

TEST(FabricPinnedOutcomeTest, WfqSharingLeafSpine) {
  const ExperimentResult r =
      run_fabric_experiment(pinned_config(SchedulerKind::kWfq, ManagerKind::kSharing));
  const Outcome pinned{0x977fc1255b3d23a6ull, 17388, 1208, 198625, 0xe07cf2aab67a1bd0ull};
  EXPECT_EQ(outcome_of(r), pinned);
}

TEST(FabricPinnedOutcomeTest, FifoDynamicThresholdLeafSpine) {
  const ExperimentResult r = run_fabric_experiment(
      pinned_config(SchedulerKind::kFifo, ManagerKind::kDynamicThreshold));
  const Outcome pinned{0x5090a96ca4f3c967ull, 17376, 1273, 198471, 0x2ea62345c90e5d04ull};
  EXPECT_EQ(outcome_of(r), pinned);
}

}  // namespace
}  // namespace bufq::fabric
