// ExpressHost service-interface tests: the §2.1 API surface, app
// unicast, handlers, silent-mode failure injection, and error paths.
#include <gtest/gtest.h>

#include <optional>

#include "helpers.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {
namespace {

using workload::make_star;

TEST(Host, RejectsAttachingToRouterNode) {
  net::Topology topo;
  const auto r = topo.add_router();
  topo.add_link(r, topo.add_host());
  net::Network network(std::move(topo));
  EXPECT_THROW(network.attach<ExpressHost>(r), std::logic_error);
}

TEST(Host, RejectsMultihomedHosts) {
  net::Topology topo;
  const auto h = topo.add_host();
  topo.add_link(h, topo.add_router());
  topo.add_link(h, topo.add_router());
  net::Network network(std::move(topo));
  EXPECT_THROW(network.attach<ExpressHost>(h), std::logic_error);
}

TEST(Host, ChannelSpaceExhaustionThrows) {
  // Not by allocating 2^24 channels — by checking the guard directly
  // via a tight loop on a fresh host is too slow; instead confirm the
  // allocator hands out strictly increasing channel indices.
  ExpressNetwork sim(make_star(1, 1));
  std::uint32_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const auto ch = sim.source().allocate_channel();
    EXPECT_GT(ch.dest.channel_index(), prev);
    prev = ch.dest.channel_index();
  }
}

TEST(Host, AppUnicastReachesHandler) {
  ExpressNetwork sim(make_star(2, 1));
  std::optional<std::uint64_t> got;
  sim.receiver(1).set_unicast_handler(
      [&](const net::Packet& packet, sim::Time) { got = packet.sequence; });
  sim.receiver(0).send_app_unicast(sim.receiver(1).address(), 300, 42);
  sim.run_for(sim::seconds(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42u);
}

TEST(Host, DataHandlerSeesPayloadHeader) {
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  std::vector<std::uint8_t> seen;
  sim.receiver(0).set_data_handler(
      [&](const net::Packet& packet, sim::Time) { seen = packet.payload; });
  sim.source().send(ch, 100, 1, {0xAB, 0xCD});
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{0xAB, 0xCD}));
}

TEST(Host, SilentHostDeliversNothingToApp) {
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  std::uint64_t last_seq = 0;
  sim.receiver(0).set_data_handler([&](const net::Packet& packet, sim::Time) {
    last_seq = packet.sequence;
  });
  sim.receiver(0).set_silent(true);
  sim.source().send(ch, 100, 1);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receiver(0).stats().data_received, 0u);
  sim.receiver(0).set_silent(false);
  sim.source().send(ch, 100, 2);
  sim.run_for(sim::seconds(1));
  ASSERT_EQ(sim.receiver(0).stats().data_received, 1u);
  EXPECT_EQ(last_seq, 2u);
}

TEST(Host, UnsubscribedDeleteIsANoop) {
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  const auto counts_before = sim.receiver(0).stats().counts_sent;
  sim.receiver(0).delete_subscription(ch);  // never subscribed
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sim.receiver(0).stats().counts_sent, counts_before);
}

TEST(Host, CountQueryGuardResolvesOnDeadNetwork) {
  // The first-hop link dies right after the query: the local guard
  // timer must still resolve the callback (partial, zero).
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));

  // Cut the source's access link so the reply can never arrive.
  const auto iface = sim.net().topology().node(sim.roles().source_host)
                         .interfaces.at(0);
  std::optional<CountResult> result;
  sim.source().count_query(ch, ecmp::kSubscriberId, sim::seconds(2),
                           [&](CountResult r) { result = r; });
  sim.net().set_link_up(iface, false);
  sim.run_for(sim::seconds(10));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->complete);
  EXPECT_EQ(result->count, 0);
}

TEST(Host, VoteHandlersReceiveDistinctCountIds) {
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch);
  sim.run_for(sim::seconds(1));
  sim.receiver(0).set_count_handler(ecmp::kAppRangeBegin + 1,
                                    [] { return std::int64_t{11}; });
  sim.receiver(0).set_count_handler(ecmp::kAppRangeBegin + 2,
                                    [] { return std::int64_t{22}; });
  std::optional<CountResult> a, b;
  sim.source().count_query(ch, ecmp::kAppRangeBegin + 1, sim::seconds(2),
                           [&](CountResult r) { a = r; });
  sim.run_for(sim::seconds(5));
  sim.source().count_query(ch, ecmp::kAppRangeBegin + 2, sim::seconds(2),
                           [&](CountResult r) { b = r; });
  sim.run_for(sim::seconds(5));
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->count, 11);
  EXPECT_EQ(b->count, 22);
}

TEST(Host, ResubscribeAfterUnsubscribeWorks) {
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch = sim.source().allocate_channel();
  for (int round = 0; round < 3; ++round) {
    sim.receiver(0).new_subscription(ch);
    sim.run_for(sim::seconds(1));
    sim.source().send(ch, 100, static_cast<std::uint64_t>(round));
    sim.run_for(sim::seconds(1));
    sim.receiver(0).delete_subscription(ch);
    sim.run_for(sim::seconds(1));
  }
  EXPECT_EQ(sim.receiver(0).stats().data_received, 3u);
  EXPECT_EQ(sim.total_fib_entries(), 0u);
}

TEST(Host, GeneralQueryTriggersReannounce) {
  // §3.3: an all-channels CountQuery solicits Counts for everything the
  // host subscribes to — used after router restarts.
  ExpressNetwork sim(make_star(1, 1));
  const ip::ChannelId ch1 = sim.source().allocate_channel();
  const ip::ChannelId ch2 = sim.source().allocate_channel();
  sim.receiver(0).new_subscription(ch1);
  sim.receiver(0).new_subscription(ch2);
  sim.run_for(sim::seconds(1));
  const auto sent_before = sim.receiver(0).stats().counts_sent;

  // Simulate the edge router's general query by having the router issue
  // a kAllChannelsId query on the host interface (UDP-mode machinery).
  ExpressRouter& edge = sim.router(1);
  (void)edge;
  // Craft it via the router's own interface-mode refresh is indirect;
  // instead verify the host's response logic directly through the wire:
  net::Packet packet;
  packet.src = sim.net().topology().node(edge.id()).address;
  packet.dst = sim.receiver(0).address();
  packet.protocol = ip::Protocol::kEcmp;
  ecmp::CountQuery general;
  general.channel = ch1;  // channel field unused for all-channels
  general.count_id = ecmp::kAllChannelsId;
  packet.payload = ecmp::encode(ecmp::Message{general});
  sim.net().send_to_neighbor(edge.id(), sim.roles().receiver_hosts[0],
                             std::move(packet));
  sim.run_for(sim::seconds(1));
  // One Count re-announced per subscribed channel.
  EXPECT_EQ(sim.receiver(0).stats().counts_sent, sent_before + 2);
}

}  // namespace
}  // namespace express::test
