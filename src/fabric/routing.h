// Route computation over a fabric::Topology.
//
// A RouteTable answers, for every (node, destination) pair, the set of
// equal-cost next-hop links on a shortest path (hop-count metric, one BFS
// per destination over the reversed graph).  It stores rows only for
// nodes with more than one out-link: a node with one out-link (a host
// and its uplink) always forwards on it, and its distance is one more
// than its neighbour's, so it is answered from the neighbour's row.  All
// stored sets live in one flat array indexed by an offsets vector, so the
// table allocates nothing per node pair.  Multi-path fabrics — leaf-spine
// uplinks, fat-tree edge/aggregation tiers, even WAN-ring antipodes —
// naturally yield several next hops; flows are pinned to one by a
// deterministic flow hash (ECMP), so a flow's packets never reorder
// across paths and the chosen path depends only on (flow, node, salt) —
// never on thread count or scheduling, which is what keeps fabric sweeps
// bit-identical at any --jobs.
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
  static constexpr std::uint32_t kNoRow = ~std::uint32_t{0};
  static constexpr LinkId kNoLink = -1;

  /// Index of (row, dst) in offsets_ and dist_.
  [[nodiscard]] std::size_t pair_index(std::uint32_t row, NodeId dst) const;

  std::size_t nodes_{0};
  std::size_t rows_{0};
  /// Per node: its row, or kNoRow when it has at most one out-link.
  std::vector<std::uint32_t> row_;
  /// Per node without a row: its one out-link and that link's head, or
  /// kNoLink when it has none.
  std::vector<LinkId> link_;
  std::vector<NodeId> neighbour_;
  /// The set of pair p = dst * rows_ + row is
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
