// Unicast routing: link-state shortest paths over the topology.
//
// ECMP's tree-building leg is deliberately thin: subscriptions are routed
// toward the source with reverse-path forwarding on whatever the unicast
// routing protocol already computed (paper §3: "the RPF routing component
// of ECMP relies on, and scales with, existing unicast topology
// information"). This class is that existing information: the answers a
// converged link-state IGP would give each router, kept as one
// shortest-path tree per *destination* (paper §3.2: trees are rooted at
// S). A tree is built by a single Dijkstra on the first query toward its
// destination and cached until the next topology change, so cost scales
// with the destinations actually asked about — sources, count requesters,
// ECMP neighbors — never with nodes². With positive symmetric link costs
// the answers equal a per-origin all-pairs computation bit for bit; the
// argument is in DESIGN.md §2.1.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "net/topology.hpp"
#include "sim/time.hpp"

namespace express::net {

class UnicastRouting {
 public:
  explicit UnicastRouting(const Topology& topo) : topo_(&topo) { recompute(); }

  /// Invalidate every cached tree; call after any link up/down change.
  /// Trees are rebuilt lazily on the next query toward their destination.
  /// Incremented `version()` lets protocol code detect staleness.
  void recompute();

  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Next hop from `from` toward `to`; nullopt when unreachable or equal.
  [[nodiscard]] std::optional<NodeId> next_hop(NodeId from, NodeId to) const;

  /// Total path cost, or nullopt when unreachable.
  [[nodiscard]] std::optional<std::uint32_t> cost(NodeId from, NodeId to) const;

  /// Hop count of path(from, to), or nullopt when unreachable.
  [[nodiscard]] std::optional<std::uint32_t> hop_count(NodeId from, NodeId to) const;

  /// Propagation delay summed along path(from, to), or nullopt when
  /// unreachable.
  [[nodiscard]] std::optional<sim::Duration> path_delay(NodeId from, NodeId to) const;

  /// Full node sequence from `from` to `to` inclusive; empty when
  /// unreachable. For from == to returns {from}.
  [[nodiscard]] std::vector<NodeId> path(NodeId from, NodeId to) const;

  /// Reverse-path-forwarding neighbor: the neighbor of `node` on the
  /// shortest path toward `source`. This is where a router sends joins,
  /// and the only interface from which it accepts channel data.
  [[nodiscard]] std::optional<NodeId> rpf_neighbor(NodeId node, NodeId source) const {
    return next_hop(node, source);
  }

  /// Interface index of the RPF neighbor on `node`.
  [[nodiscard]] std::optional<std::uint32_t> rpf_interface(NodeId node,
                                                           NodeId source) const;

  /// Number of destination trees currently cached (at most one per
  /// destination queried since the last recompute()).
  [[nodiscard]] std::size_t cached_trees() const;

 private:
  static constexpr std::uint32_t kUnreachable =
      std::numeric_limits<std::uint32_t>::max();

  // tree[x] = {cost x→dest, next hop from x, hops and delay along the
  // next-hop chain}.
  struct Entry {
    std::uint32_t cost = kUnreachable;
    NodeId next_hop = kInvalidNode;
    std::uint32_t hops = 0;
    std::int64_t delay_ns = 0;
  };
  using Tree = std::vector<Entry>;

  /// The tree rooted at `dest`, built on first use.
  const Tree& tree(NodeId dest) const;
  void build(NodeId dest, Tree& tree) const;

  const Topology* topo_;
  std::uint64_t version_ = 0;
  // trees_[dest] is empty until a query toward `dest` builds it.
  mutable std::vector<Tree> trees_;
};

}  // namespace express::net
