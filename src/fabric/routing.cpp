#include "fabric/routing.h"

#include <algorithm>
#include <cassert>

namespace bufq::fabric {
namespace {

/// splitmix64 finalizer (Steele, Lea & Flood; public domain reference
/// algorithm) — the same avalanche the Rng seeds through, reimplemented
/// here so routing does not depend on util/rng internals.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

RouteTable RouteTable::shortest_paths(const Topology& topo) {
  RouteTable table;
  const std::size_t n = topo.node_count();
  table.nodes_ = n;
  table.row_.assign(n, kNoRow);
  table.link_.assign(n, kNoLink);
  table.neighbour_.assign(n, -1);
  std::vector<NodeId> row_nodes;  // the node of each row
  for (std::size_t u = 0; u < n; ++u) {
    const std::vector<LinkId>& out = topo.out_links(static_cast<NodeId>(u));
    if (out.size() > 1) {
      table.row_[u] = static_cast<std::uint32_t>(row_nodes.size());
      row_nodes.push_back(static_cast<NodeId>(u));
    } else if (out.size() == 1) {
      table.link_[u] = out.front();
      table.neighbour_[u] = topo.link(out.front()).to;
    }
  }
  const std::size_t rows = row_nodes.size();
  table.rows_ = rows;
  table.dist_.assign(n * rows, -1);
  table.offsets_.assign(n * rows + 1, 0);

  // Reverse adjacency: for BFS from each destination we need the links
  // *into* a node.
  std::vector<std::vector<LinkId>> in(n);
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    const auto id = static_cast<LinkId>(l);
    in[static_cast<std::size_t>(topo.link(id).to)].push_back(id);
  }

  // u's next hops toward a destination are its out-links whose head is
  // one hop closer.  Out-links are listed in ascending id order, so each
  // set comes out sorted.
  const auto for_each_next_hop = [&topo](NodeId u, int du, const auto& dist_of,
                                         const auto& visit) {
    for (const LinkId l : topo.out_links(u)) {
      const int d = dist_of(topo.link(l).to);
      if (d != -1 && d == du - 1) visit(l);
    }
  };

  // Pass 1: one BFS per destination over the reversed graph (one queue
  // and one distance array, reused), then keep the rows' distances and
  // count their next hops.
  std::vector<int> dist(n);
  std::vector<NodeId> frontier(n);
  for (std::size_t dst = 0; dst < n; ++dst) {
    std::fill(dist.begin(), dist.end(), -1);
    dist[dst] = 0;
    std::size_t head = 0;
    std::size_t tail = 0;
    frontier[tail++] = static_cast<NodeId>(dst);
    while (head < tail) {
      const auto v = static_cast<std::size_t>(frontier[head++]);
      for (const LinkId l : in[v]) {
        const auto u = static_cast<std::size_t>(topo.link(l).from);
        if (dist[u] == -1) {
          dist[u] = dist[v] + 1;
          frontier[tail++] = static_cast<NodeId>(u);
        }
      }
    }
    const auto dist_of = [&dist](NodeId v) { return dist[static_cast<std::size_t>(v)]; };
    for (std::size_t row = 0; row < rows; ++row) {
      const NodeId u = row_nodes[row];
      const int du = dist_of(u);
      const std::size_t p = dst * rows + row;
      table.dist_[p] = du;
      if (du <= 0) continue;
      std::uint32_t count = 0;
      for_each_next_hop(u, du, dist_of, [&count](LinkId) { ++count; });
      table.offsets_[p + 1] = count;
    }
  }
  for (std::size_t p = 0; p < n * rows; ++p) table.offsets_[p + 1] += table.offsets_[p];

  // Pass 2: fill the sets into the one array, sized exactly.  A head
  // without a row answers its distance through its neighbour's row.
  table.hops_.resize(table.offsets_.back());
  for (std::size_t dst = 0; dst < n; ++dst) {
    const auto dist_of = [&table, dst](NodeId v) {
      return table.distance(v, static_cast<NodeId>(dst));
    };
    for (std::size_t row = 0; row < rows; ++row) {
      const std::size_t p = dst * rows + row;
      std::uint32_t at = table.offsets_[p];
      if (at == table.offsets_[p + 1]) continue;
      for_each_next_hop(row_nodes[row], table.dist_[p], dist_of,
                        [&table, &at](LinkId l) { table.hops_[at++] = l; });
    }
  }
  return table;
}

std::size_t RouteTable::pair_index(std::uint32_t row, NodeId dst) const {
  assert(row < rows_);
  assert(dst >= 0 && static_cast<std::size_t>(dst) < nodes_);
  return static_cast<std::size_t>(dst) * rows_ + row;
}

std::span<const LinkId> RouteTable::next_hops(NodeId node, NodeId dst) const {
  assert(node >= 0 && static_cast<std::size_t>(node) < nodes_);
  const auto u = static_cast<std::size_t>(node);
  if (row_[u] == kNoRow) {
    // One out-link at most: it is the next hop whenever dst is reachable
    // and not the node itself.
    if (distance(node, dst) <= 0) return {};
    return std::span<const LinkId>{&link_[u], 1};
  }
  const std::size_t p = pair_index(row_[u], dst);
  return std::span<const LinkId>{hops_}.subspan(offsets_[p], offsets_[p + 1] - offsets_[p]);
}

int RouteTable::distance(NodeId node, NodeId dst) const {
  assert(node >= 0 && static_cast<std::size_t>(node) < nodes_);
  assert(dst >= 0 && static_cast<std::size_t>(dst) < nodes_);
  // Walk single-link nodes toward the first node with a row: each step
  // is one hop.  A walk longer than the node count is a cycle of
  // single-link nodes that never meets dst.
  int hops = 0;
  for (std::size_t guard = 0; guard <= nodes_; ++guard) {
    if (node == dst) return hops;
    const auto u = static_cast<std::size_t>(node);
    if (row_[u] != kNoRow) {
      const int rest = dist_[pair_index(row_[u], dst)];
      return rest == -1 ? -1 : hops + rest;
    }
    if (link_[u] == kNoLink) return -1;
    node = neighbour_[u];
    ++hops;
  }
  return -1;
}

LinkId ecmp_pick(std::span<const LinkId> choices, FlowId flow, NodeId node,
                 std::uint64_t salt) {
  assert(!choices.empty());
  if (choices.size() == 1) return choices.front();
  const std::uint64_t h =
      mix64(salt ^ mix64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(flow))) ^
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 32));
  return choices[h % choices.size()];
}

std::vector<LinkId> flow_path(const Topology& topo, const RouteTable& routes, FlowId flow,
                              NodeId src, NodeId dst, std::uint64_t salt) {
  std::vector<LinkId> path;
  NodeId at = src;
  // Shortest paths shrink the distance every hop, so node_count() bounds
  // the walk even if the table were inconsistent.
  for (std::size_t guard = 0; at != dst && guard < topo.node_count(); ++guard) {
    const std::span<const LinkId> hops = routes.next_hops(at, dst);
    if (hops.empty()) return {};
    const LinkId l = ecmp_pick(hops, flow, at, salt);
    path.push_back(l);
    at = topo.link(l).to;
  }
  return at == dst ? path : std::vector<LinkId>{};
}

}  // namespace bufq::fabric
