#include "fabric/routing.h"

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
  table.dist_.assign(n * n, -1);
  table.offsets_.assign(n * n + 1, 0);

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
  const auto is_next_hop = [&topo](const int* dist, std::size_t u, LinkId l) {
    const int d = dist[static_cast<std::size_t>(topo.link(l).to)];
    return d != -1 && d == dist[u] - 1;
  };

  // Pass 1: one BFS per destination over the reversed graph (one queue,
  // reused), then count every node's next hops toward it.
  std::vector<NodeId> frontier(n);
  for (std::size_t dst = 0; dst < n; ++dst) {
    int* dist = &table.dist_[dst * n];
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
    for (std::size_t u = 0; u < n; ++u) {
      if (u == dst || dist[u] == -1) continue;
      std::uint32_t count = 0;
      for (const LinkId l : topo.out_links(static_cast<NodeId>(u))) {
        if (is_next_hop(dist, u, l)) ++count;
      }
      table.offsets_[dst * n + u + 1] = count;
    }
  }
  for (std::size_t p = 0; p < n * n; ++p) table.offsets_[p + 1] += table.offsets_[p];

  // Pass 2: fill the sets into the one array, sized exactly.
  table.hops_.resize(table.offsets_.back());
  for (std::size_t dst = 0; dst < n; ++dst) {
    const int* dist = &table.dist_[dst * n];
    for (std::size_t u = 0; u < n; ++u) {
      std::uint32_t at = table.offsets_[dst * n + u];
      if (at == table.offsets_[dst * n + u + 1]) continue;
      for (const LinkId l : topo.out_links(static_cast<NodeId>(u))) {
        if (is_next_hop(dist, u, l)) table.hops_[at++] = l;
      }
    }
  }
  return table;
}

std::size_t RouteTable::pair_index(NodeId node, NodeId dst) const {
  assert(node >= 0 && static_cast<std::size_t>(node) < nodes_);
  assert(dst >= 0 && static_cast<std::size_t>(dst) < nodes_);
  return static_cast<std::size_t>(dst) * nodes_ + static_cast<std::size_t>(node);
}

std::span<const LinkId> RouteTable::next_hops(NodeId node, NodeId dst) const {
  const std::size_t p = pair_index(node, dst);
  return std::span<const LinkId>{hops_}.subspan(offsets_[p], offsets_[p + 1] - offsets_[p]);
}

int RouteTable::distance(NodeId node, NodeId dst) const { return dist_[pair_index(node, dst)]; }

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
