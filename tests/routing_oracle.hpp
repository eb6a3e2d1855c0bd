// Test oracle: the original eager all-pairs unicast routing.
//
// One Dijkstra per origin into an N×N table, with the equal-cost rule
// "prefer the numerically smaller first hop". net::UnicastRouting answers
// the same queries from lazily built destination-rooted trees; the
// randomized equality test in test_routing.cpp holds it to this table.
// Quadratic in time and memory: use on small graphs only.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <tuple>
#include <vector>

#include "net/topology.hpp"
#include "sim/time.hpp"

namespace express::test {

using net::kInvalidNode;
using net::LinkId;
using net::LinkInfo;
using net::NodeId;
using net::Topology;

class OracleRouting {
 public:
  explicit OracleRouting(const Topology& topo) : topo_(&topo) { recompute(); }

  void recompute() {
    const std::size_t n = topo_->node_count();
    tables_.assign(n, std::vector<Entry>(n));
    for (NodeId origin = 0; origin < n; ++origin) dijkstra(origin);
  }

  [[nodiscard]] std::optional<NodeId> next_hop(NodeId from, NodeId to) const {
    if (from == to) return std::nullopt;
    const Entry& f = tables_.at(from).at(to);
    if (f.cost == kUnreachable) return std::nullopt;
    return f.first_hop;
  }

  [[nodiscard]] std::optional<std::uint32_t> cost(NodeId from,
                                                  NodeId to) const {
    const Entry& f = tables_.at(from).at(to);
    if (f.cost == kUnreachable) return std::nullopt;
    return f.cost;
  }

  [[nodiscard]] std::optional<std::uint32_t> hop_count(NodeId from,
                                                       NodeId to) const {
    const Entry& f = tables_.at(from).at(to);
    if (f.cost == kUnreachable) return std::nullopt;
    return f.hops;
  }

  [[nodiscard]] std::optional<sim::Duration> path_delay(NodeId from,
                                                        NodeId to) const {
    const Entry& f = tables_.at(from).at(to);
    if (f.cost == kUnreachable) return std::nullopt;
    return sim::Duration{f.delay_ns};
  }

  [[nodiscard]] std::vector<NodeId> path(NodeId from, NodeId to) const {
    std::vector<NodeId> out;
    if (from == to) return {from};
    if (!cost(from, to)) return out;
    out.push_back(from);
    NodeId cur = from;
    // Bounded by node count: each next_hop strictly reduces remaining cost.
    for (std::size_t guard = 0; guard <= topo_->node_count(); ++guard) {
      auto nh = next_hop(cur, to);
      if (!nh) return {};
      out.push_back(*nh);
      if (*nh == to) return out;
      cur = *nh;
    }
    return {};  // should be unreachable; defensive against table corruption
  }

  [[nodiscard]] std::optional<std::uint32_t> rpf_interface(
      NodeId node, NodeId source) const {
    auto nh = next_hop(node, source);
    if (!nh) return std::nullopt;
    return topo_->interface_to(node, *nh);
  }

 private:
  static constexpr std::uint32_t kUnreachable =
      std::numeric_limits<std::uint32_t>::max();

  void dijkstra(NodeId origin) {
    auto& table = tables_[origin];
    table[origin] = Entry{0, origin, 0, 0};

    // (cost, tie-break node id) — deterministic shortest-path trees so that
    // repeated runs build identical multicast trees.
    using QItem = std::tuple<std::uint32_t, NodeId>;
    std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
    queue.emplace(0, origin);

    std::vector<bool> done(topo_->node_count(), false);
    while (!queue.empty()) {
      auto [dist, u] = queue.top();
      queue.pop();
      if (done[u]) continue;
      done[u] = true;
      for (LinkId lid : topo_->node(u).interfaces) {
        const LinkInfo& l = topo_->link(lid);
        if (!l.up) continue;
        const NodeId v = topo_->peer(lid, u);
        const std::uint32_t nd = dist + l.cost;
        Entry& ev = table[v];
        const NodeId via = (u == origin) ? v : table[u].first_hop;
        // Strictly-better cost wins; equal cost prefers the numerically
        // smaller first hop so ties break deterministically.
        if (nd < ev.cost ||
            (nd == ev.cost && via < ev.first_hop)) {
          ev.cost = nd;
          ev.first_hop = via;
          ev.hops = table[u].hops + 1;
          ev.delay_ns = table[u].delay_ns + l.delay.count();
          queue.emplace(nd, v);
        }
      }
    }
  }

  const Topology* topo_;
  // tables_[origin][dest] = {cost, first_hop_from_origin, hops, delay_ns}
  struct Entry {
    std::uint32_t cost = kUnreachable;
    NodeId first_hop = kInvalidNode;
    std::uint32_t hops = 0;
    std::int64_t delay_ns = 0;
  };
  std::vector<std::vector<Entry>> tables_;
};

}  // namespace express::test
