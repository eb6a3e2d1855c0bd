#include "net/routing.hpp"

#include <functional>
#include <queue>
#include <utility>

namespace express::net {

void UnicastRouting::recompute() {
  trees_.assign(topo_->node_count(), Tree{});
  ++version_;
}

std::size_t UnicastRouting::cached_trees() const {
  std::size_t n = 0;
  for (const Tree& t : trees_) n += t.empty() ? 0 : 1;
  return n;
}

const UnicastRouting::Tree& UnicastRouting::tree(NodeId dest) const {
  Tree& t = trees_.at(dest);
  if (t.empty()) build(dest, t);
  return t;
}

void UnicastRouting::build(NodeId dest, Tree& tree) const {
  tree.assign(topo_->node_count(), Entry{});
  tree[dest] = Entry{0, dest, 0, 0};

  // Costs are symmetric, so a Dijkstra rooted at `dest` yields every
  // node's distance *to* `dest`. Nodes pop in order of increasing
  // distance, so when x pops, every neighbor n with
  // cost(x,n) + d[n] == d[x] already holds its final entry.
  using QItem = std::pair<std::uint32_t, NodeId>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
  queue.emplace(0, dest);

  while (!queue.empty()) {
    const auto [dist, x] = queue.top();
    queue.pop();
    Entry& ex = tree[x];
    if (dist != ex.cost) continue;  // stale: x was reached cheaper
    for (LinkId lid : topo_->node(x).interfaces) {
      const LinkInfo& l = topo_->link(lid);
      if (!l.up) continue;
      const NodeId n = topo_->peer(lid, x);
      Entry& en = tree[n];
      // Next hop: the numerically smallest neighbor on a shortest path
      // (DESIGN.md §2.1). Costs are positive, so only finished nodes
      // satisfy d[n] < d[x].
      if (x != dest && en.cost < dist && dist - en.cost == l.cost &&
          n < ex.next_hop) {
        ex.next_hop = n;
        ex.hops = en.hops + 1;
        ex.delay_ns = en.delay_ns + l.delay.count();
      }
      const std::uint32_t nd = dist + l.cost;
      if (nd < en.cost) {
        en.cost = nd;
        queue.emplace(nd, n);
      }
    }
  }
}

std::optional<NodeId> UnicastRouting::next_hop(NodeId from, NodeId to) const {
  if (from == to) return std::nullopt;
  const Entry& f = tree(to).at(from);
  if (f.cost == kUnreachable) return std::nullopt;
  return f.next_hop;
}

std::optional<std::uint32_t> UnicastRouting::cost(NodeId from, NodeId to) const {
  const Entry& f = tree(to).at(from);
  if (f.cost == kUnreachable) return std::nullopt;
  return f.cost;
}

std::optional<std::uint32_t> UnicastRouting::hop_count(NodeId from,
                                                       NodeId to) const {
  const Entry& f = tree(to).at(from);
  if (f.cost == kUnreachable) return std::nullopt;
  return f.hops;
}

std::optional<sim::Duration> UnicastRouting::path_delay(NodeId from,
                                                        NodeId to) const {
  const Entry& f = tree(to).at(from);
  if (f.cost == kUnreachable) return std::nullopt;
  return sim::Duration{f.delay_ns};
}

std::vector<NodeId> UnicastRouting::path(NodeId from, NodeId to) const {
  const Tree& t = tree(to);
  const Entry& f = t.at(from);
  if (f.cost == kUnreachable) return {};
  std::vector<NodeId> out;
  out.reserve(f.hops + 1);
  // Each next hop strictly reduces the remaining cost, so this ends at `to`.
  for (NodeId cur = from; cur != to; cur = t[cur].next_hop) out.push_back(cur);
  out.push_back(to);
  return out;
}

std::optional<std::uint32_t> UnicastRouting::rpf_interface(NodeId node,
                                                           NodeId source) const {
  auto nh = rpf_neighbor(node, source);
  if (!nh) return std::nullopt;
  return topo_->interface_to(node, *nh);
}

}  // namespace express::net
