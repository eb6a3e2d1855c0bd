// Unit tests for topology bookkeeping and unicast (RPF) routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "net/network.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "routing_oracle.hpp"
#include "sim/random.hpp"
#include "workload/topo_gen.hpp"

namespace express::net {
namespace {

TEST(Topology, NodesGetDistinctAddresses) {
  Topology t;
  const NodeId a = t.add_router();
  const NodeId b = t.add_host();
  EXPECT_NE(t.node(a).address, t.node(b).address);
  EXPECT_EQ(t.node(a).kind, NodeKind::kRouter);
  EXPECT_EQ(t.node(b).kind, NodeKind::kHost);
}

TEST(Topology, LinkCreatesInterfacesOnBothEnds) {
  Topology t;
  const NodeId a = t.add_router();
  const NodeId b = t.add_router();
  const LinkId l = t.add_link(a, b);
  EXPECT_EQ(t.interface_count(a), 1u);
  EXPECT_EQ(t.interface_count(b), 1u);
  EXPECT_EQ(t.peer(l, a), b);
  EXPECT_EQ(t.peer(l, b), a);
  EXPECT_EQ(t.interface_on(a, l), 0u);
  EXPECT_EQ(t.interface_to(a, b), 0u);
  EXPECT_EQ(t.neighbor_via(a, 0), b);
}

TEST(Topology, InterfaceIndicesAreSequential) {
  Topology t;
  const NodeId hub = t.add_router();
  for (int i = 0; i < 5; ++i) {
    const NodeId spoke = t.add_router();
    t.add_link(hub, spoke);
    EXPECT_EQ(t.interface_to(hub, spoke), static_cast<std::uint32_t>(i));
  }
}

TEST(Topology, NeighborsSkipDownLinks) {
  Topology t;
  const NodeId a = t.add_router();
  const NodeId b = t.add_router();
  const NodeId c = t.add_router();
  const LinkId ab = t.add_link(a, b);
  t.add_link(a, c);
  EXPECT_EQ(t.neighbors(a).size(), 2u);
  t.set_link_up(ab, false);
  const auto n = t.neighbors(a);
  ASSERT_EQ(n.size(), 1u);
  EXPECT_EQ(n[0], c);
}

TEST(Topology, RejectsZeroCostLinks) {
  Topology t;
  const NodeId a = t.add_router();
  const NodeId b = t.add_router();
  EXPECT_THROW(t.add_link(a, b, sim::milliseconds(1), /*cost=*/0),
               std::invalid_argument);
}

TEST(Topology, FindByAddress) {
  Topology t;
  const NodeId a = t.add_router();
  EXPECT_EQ(t.find_by_address(t.node(a).address), a);
  EXPECT_FALSE(t.find_by_address(ip::Address(1, 2, 3, 4)).has_value());
}

class LineRouting : public ::testing::Test {
 protected:
  //  0 -- 1 -- 2 -- 3 -- 4
  LineRouting() {
    for (int i = 0; i < 5; ++i) ids_.push_back(topo_.add_router());
    for (int i = 0; i < 4; ++i) {
      links_.push_back(topo_.add_link(ids_[static_cast<std::size_t>(i)],
                                      ids_[static_cast<std::size_t>(i + 1)],
                                      sim::milliseconds(i + 1)));
    }
  }
  Topology topo_;
  std::vector<NodeId> ids_;
  std::vector<LinkId> links_;
};

TEST_F(LineRouting, ShortestPathAlongLine) {
  UnicastRouting r(topo_);
  EXPECT_EQ(r.next_hop(0, 4), 1u);
  EXPECT_EQ(r.next_hop(4, 0), 3u);
  EXPECT_EQ(r.cost(0, 4), 4u);
  EXPECT_EQ(r.hop_count(0, 4), 4u);
  const auto p = r.path(0, 4);
  EXPECT_EQ(p, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST_F(LineRouting, PathDelaySumsLinkDelays) {
  UnicastRouting r(topo_);
  // 1 + 2 + 3 + 4 ms.
  EXPECT_EQ(r.path_delay(0, 4), sim::milliseconds(10));
}

TEST_F(LineRouting, SelfRouting) {
  UnicastRouting r(topo_);
  EXPECT_FALSE(r.next_hop(2, 2).has_value());
  EXPECT_EQ(r.cost(2, 2), 0u);
  EXPECT_EQ(r.path(2, 2), std::vector<NodeId>{2});
}

TEST_F(LineRouting, LinkFailurePartitions) {
  topo_.set_link_up(links_[1], false);  // cut 1--2
  UnicastRouting r(topo_);
  EXPECT_FALSE(r.next_hop(0, 4).has_value());
  EXPECT_FALSE(r.cost(0, 4).has_value());
  EXPECT_TRUE(r.path(0, 4).empty());
  EXPECT_EQ(r.cost(0, 1), 1u);  // near side still works
  EXPECT_EQ(r.cost(2, 4), 2u);  // far side still works
}

TEST_F(LineRouting, RecomputeBumpsVersion) {
  UnicastRouting r(topo_);
  const auto v = r.version();
  r.recompute();
  EXPECT_GT(r.version(), v);
}

TEST(Routing, PrefersLowerCostOverFewerHops) {
  // 0 --(cost 10)-- 1 ;  0 -- 2 -- 1 with cost 1 each.
  Topology t;
  const NodeId n0 = t.add_router();
  const NodeId n1 = t.add_router();
  const NodeId n2 = t.add_router();
  t.add_link(n0, n1, sim::milliseconds(1), /*cost=*/10);
  t.add_link(n0, n2, sim::milliseconds(1), 1);
  t.add_link(n2, n1, sim::milliseconds(1), 1);
  UnicastRouting r(t);
  EXPECT_EQ(r.next_hop(n0, n1), n2);
  EXPECT_EQ(r.cost(n0, n1), 2u);
  EXPECT_EQ(r.hop_count(n0, n1), 2u);
}

TEST(Routing, EqualCostTieBreaksDeterministically) {
  // Diamond: 0 -- {1, 2} -- 3, all cost 1. Both runs must agree.
  Topology t;
  const NodeId n0 = t.add_router();
  const NodeId n1 = t.add_router();
  const NodeId n2 = t.add_router();
  const NodeId n3 = t.add_router();
  t.add_link(n0, n1);
  t.add_link(n0, n2);
  t.add_link(n1, n3);
  t.add_link(n2, n3);
  UnicastRouting a(t);
  UnicastRouting b(t);
  EXPECT_EQ(a.next_hop(n0, n3), b.next_hop(n0, n3));
  // Tie-break prefers the numerically smaller first hop.
  EXPECT_EQ(a.next_hop(n0, n3), n1);
}

TEST(Routing, RpfInterfaceMatchesNextHop) {
  Topology t;
  const NodeId r0 = t.add_router();
  const NodeId r1 = t.add_router();
  const NodeId src = t.add_host();
  t.add_link(r0, r1);
  t.add_link(r1, src);
  UnicastRouting r(t);
  EXPECT_EQ(r.rpf_neighbor(r0, src), r1);
  EXPECT_EQ(r.rpf_interface(r0, src), t.interface_to(r0, r1));
  EXPECT_EQ(r.rpf_neighbor(r1, src), src);
}

TEST(Routing, PathIsCostMonotone) {
  // Property: along any path(), remaining cost strictly decreases.
  Topology t;
  std::vector<NodeId> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(t.add_router());
  // A braided ladder with some chords.
  for (int i = 0; i + 1 < 12; ++i) {
    t.add_link(ids[static_cast<std::size_t>(i)],
               ids[static_cast<std::size_t>(i + 1)]);
  }
  t.add_link(ids[0], ids[5], sim::milliseconds(1), 2);
  t.add_link(ids[3], ids[9], sim::milliseconds(1), 3);
  UnicastRouting r(t);
  for (NodeId from = 0; from < 12; ++from) {
    for (NodeId to = 0; to < 12; ++to) {
      const auto p = r.path(from, to);
      for (std::size_t i = 0; i + 1 < p.size(); ++i) {
        EXPECT_GT(r.cost(p[i], to).value(), r.cost(p[i + 1], to).value());
      }
    }
  }
}


// ---- Equality with the all-pairs oracle (tests/routing_oracle.hpp) ----

// Sum of link delays along `p`, hop by hop through interface_to().
sim::Duration delay_along(const Topology& t, const std::vector<NodeId>& p) {
  sim::Duration sum{0};
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    const auto iface = t.interface_to(p[i], p[i + 1]);
    sum += t.link(t.node(p[i]).interfaces.at(iface.value())).delay;
  }
  return sum;
}

// next_hop, cost, path and rpf_interface equal the oracle for every pair;
// hop_count and path_delay describe path(). With `unit_cost`, hop_count
// and path_delay must equal the oracle's too.
void expect_matches_oracle(const Topology& t, const UnicastRouting& r,
                           const test::OracleRouting& o, bool unit_cost) {
  const auto n = static_cast<NodeId>(t.node_count());
  for (NodeId from = 0; from < n; ++from) {
    for (NodeId to = 0; to < n; ++to) {
      SCOPED_TRACE(::testing::Message() << from << " -> " << to);
      ASSERT_EQ(r.next_hop(from, to), o.next_hop(from, to));
      ASSERT_EQ(r.cost(from, to), o.cost(from, to));
      ASSERT_EQ(r.rpf_interface(from, to), o.rpf_interface(from, to));
      const auto p = r.path(from, to);
      ASSERT_EQ(p, o.path(from, to));
      if (p.empty()) {
        EXPECT_FALSE(r.hop_count(from, to).has_value());
        EXPECT_FALSE(r.path_delay(from, to).has_value());
        continue;
      }
      EXPECT_EQ(r.hop_count(from, to), p.size() - 1);
      EXPECT_EQ(r.path_delay(from, to), delay_along(t, p));
      if (unit_cost) {
        EXPECT_EQ(r.hop_count(from, to), o.hop_count(from, to));
        EXPECT_EQ(r.path_delay(from, to), o.path_delay(from, to));
      }
    }
  }
}

// A random connected router graph with random positive costs (small
// range, so equal-cost ties are common) and delays, a LAN hub shared by
// routers and hosts, a multihomed host, and single-homed hosts. No
// parallel links, so a path's delay is unambiguous.
Topology random_graph(sim::Rng& rng) {
  Topology t;
  std::set<std::pair<NodeId, NodeId>> linked;
  auto link = [&](NodeId a, NodeId b) {
    if (a == b || !linked.emplace(std::min(a, b), std::max(a, b)).second) {
      return;
    }
    t.add_link(a, b, sim::milliseconds(rng.between(1, 9)),
               static_cast<std::uint32_t>(rng.between(1, 4)));
  };
  const auto routers = static_cast<NodeId>(rng.between(5, 12));
  for (NodeId i = 0; i < routers; ++i) t.add_router();
  for (NodeId i = 1; i < routers; ++i) link(rng.below(i), i);  // spanning tree
  const auto chords = rng.between(1, routers);
  for (std::int64_t c = 0; c < chords; ++c) {
    link(rng.below(routers), rng.below(routers));
  }
  // Two distinct routers, so the hub is a transit segment and the
  // multihomed host really has two uplinks.
  auto router_pair = [&] {
    const NodeId a = rng.below(routers);
    return std::pair{a, (a + 1 + rng.below(routers - 1)) % routers};
  };
  const NodeId hub = t.add_node(NodeKind::kLanHub, "lan");
  const auto [h1, h2] = router_pair();
  link(hub, h1);
  link(hub, h2);
  link(hub, rng.below(routers));
  link(hub, t.add_host());
  link(hub, t.add_host());
  const NodeId multihomed = t.add_host();
  const auto [m1, m2] = router_pair();
  link(multihomed, m1);
  link(multihomed, m2);
  for (int i = 0; i < 3; ++i) link(t.add_host(), rng.below(routers));
  return t;
}

TEST(RoutingOracle, RandomGraphsUnderLinkFlapsMatchAllPairs) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    sim::Rng rng(seed);
    Topology t = random_graph(rng);
    UnicastRouting r(t);
    test::OracleRouting o(t);
    expect_matches_oracle(t, r, o, /*unit_cost=*/false);
    if (::testing::Test::HasFatalFailure()) return;
    for (int step = 0; step < 8; ++step) {
      const auto lid = static_cast<LinkId>(
          rng.below(static_cast<std::uint32_t>(t.link_count())));
      t.set_link_up(lid, !t.link(lid).up);
      r.recompute();
      o.recompute();
      expect_matches_oracle(t, r, o, /*unit_cost=*/false);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(RoutingOracle, UnitCostGeneratorsMatchAllPairsIncludingHopsAndDelay) {
  sim::Rng rng(11);
  std::vector<workload::GeneratedTopology> gens;
  gens.push_back(workload::make_kary_tree(3, 3, {}, 2));
  gens.push_back(workload::make_transit_stub(6, 2, 2, rng));
  gens.push_back(workload::make_line(10));
  for (auto& g : gens) {
    Topology& t = g.topology;
    UnicastRouting r(t);
    test::OracleRouting o(t);
    expect_matches_oracle(t, r, o, /*unit_cost=*/true);
    // Flap a few links (the transit-stub core has alternate paths).
    for (LinkId lid = 0; lid < t.link_count(); lid += 7) {
      t.set_link_up(lid, false);
      r.recompute();
      o.recompute();
      expect_matches_oracle(t, r, o, /*unit_cost=*/true);
      t.set_link_up(lid, true);
    }
  }
}

TEST(Routing, AnswersDoNotDependOnQueryOrder) {
  sim::Rng rng(5);
  const Topology t = random_graph(rng);
  UnicastRouting forward(t);
  UnicastRouting backward(t);
  const auto n = static_cast<NodeId>(t.node_count());
  std::vector<std::optional<NodeId>> a;
  std::vector<std::optional<NodeId>> b;
  for (NodeId to = 0; to < n; ++to) {
    for (NodeId from = 0; from < n; ++from) {
      a.push_back(forward.next_hop(from, to));
    }
  }
  for (NodeId to = n; to-- > 0;) {
    for (NodeId from = n; from-- > 0;) {
      b.push_back(backward.next_hop(from, to));
    }
  }
  std::reverse(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

// Scale guard: on a depth-5 4-ary tree with 10 hosts per leaf (~11.6k
// nodes) building the network and flapping a core link must cost one tree
// per destination actually queried. An all-pairs table here takes tens of seconds and GBs,
// which the ctest timeout on this binary turns into a failure.
TEST(Routing, FlapOnLargeTreeBuildsOnlyQueriedTrees) {
  auto g = workload::make_kary_tree(4, 5, {}, 10);
  ASSERT_GT(g.topology.node_count(), 11000u);
  const NodeId src = g.source_host;
  const NodeId far = g.receiver_hosts.back();
  Network network(std::move(g.topology));
  const UnicastRouting& r = network.routing();
  EXPECT_EQ(r.cached_trees(), 0u);

  const auto n = static_cast<NodeId>(network.topology().node_count());
  std::size_t reachable = 0;
  for (NodeId x = 0; x < n; ++x) reachable += r.cost(x, src) ? 1 : 0;
  EXPECT_EQ(reachable, n);
  EXPECT_EQ(r.path(far, src).size(), 8u);  // host, 5 tree levels + root, src
  EXPECT_EQ(r.cached_trees(), 1u);

  // Cut the root's link to its first child router.
  const NodeId root = g.source_router;
  const LinkId core = network.topology().node(root).interfaces.at(1);
  network.set_link_up(core, false);
  EXPECT_EQ(r.cached_trees(), 0u);
  reachable = 0;
  for (NodeId x = 0; x < n; ++x) reachable += r.rpf_neighbor(x, src) ? 1 : 0;
  // The cut subtree (341 routers, 2,560 hosts) lost its route; the rest
  // still reach src, itself excluded (no next hop to self).
  EXPECT_EQ(reachable, n - 2901 - 1);
  // The far leaf hangs off the last child, so it keeps its route, and
  // the cost is the same from either end.
  EXPECT_EQ(r.cost(far, src), 7u);
  EXPECT_EQ(r.cost(src, far), 7u);
  EXPECT_EQ(r.cached_trees(), 2u);  // rooted at src and at far

  network.set_link_up(core, true);
  EXPECT_EQ(r.cached_trees(), 0u);
  EXPECT_EQ(r.cost(far, src), 7u);
  EXPECT_EQ(r.cached_trees(), 1u);
}

}  // namespace
}  // namespace express::net
