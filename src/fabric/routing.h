// Route computation over a fabric::Topology.
//
// A RouteTable holds, for every (node, destination) pair, the set of
// equal-cost next-hop links on a shortest path (hop-count metric, one BFS
// per destination over the reversed graph).  All sets live in one flat
// array indexed by an offsets vector, so the table allocates nothing per
// node pair.  Multi-path fabrics — leaf-spine uplinks, fat-tree
// edge/aggregation tiers, even WAN-ring antipodes — naturally yield
// several next hops; flows are pinned to one by a deterministic flow hash
// (ECMP), so a flow's packets never reorder across paths and the chosen
// path depends only on (flow, node, salt) — never on thread count or
// scheduling, which is what keeps fabric sweeps bit-identical at any
// --jobs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fabric/topology.h"
#include "sim/packet.h"

namespace bufq::fabric {

class RouteTable {
 public:
  /// All-destinations shortest paths by hop count.  O(nodes * links).
  [[nodiscard]] static RouteTable shortest_paths(const Topology& topo);

  /// Equal-cost next-hop links from `node` toward `dst`, sorted by link id
  /// (a deterministic order the ECMP hash indexes into).  Empty when `dst`
  /// is unreachable or node == dst.  Valid while the table lives.
  [[nodiscard]] std::span<const LinkId> next_hops(NodeId node, NodeId dst) const;

  /// Hop distance from `node` to `dst`; -1 when unreachable.
  [[nodiscard]] int distance(NodeId node, NodeId dst) const;

 private:
  [[nodiscard]] std::size_t pair_index(NodeId node, NodeId dst) const;

  std::size_t nodes_{0};
  /// The set of pair p = dst * nodes_ + node is
  /// hops_[offsets_[p] .. offsets_[p + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<LinkId> hops_;
  std::vector<int> dist_;  ///< by pair index
};

/// Deterministic ECMP choice: a splitmix64-style hash of (flow, node,
/// salt) indexes the equal-cost set.  Requires a non-empty `choices`.
[[nodiscard]] LinkId ecmp_pick(std::span<const LinkId> choices, FlowId flow, NodeId node,
                               std::uint64_t salt);

/// The full link path of `flow` from `src` to `dst` under ECMP pinning.
/// Empty when no route exists.
[[nodiscard]] std::vector<LinkId> flow_path(const Topology& topo, const RouteTable& routes,
                                            FlowId flow, NodeId src, NodeId dst,
                                            std::uint64_t salt);

}  // namespace bufq::fabric
