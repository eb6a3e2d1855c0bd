// The observability plane (DESIGN.md §11): metrics registry semantics,
// the trace ring, and the two guarantees the design rests on —
//   1. every `*Stats` accessor returns its module's registry block:
//      each field equals registry.value(name, entity) after seeded
//      EXPRESS, relay and baseline runs, and RouterStats aggregates
//      those blocks, and
//   2. identically-seeded runs serialize byte-identical metrics
//      snapshots and trace JSONL, while different seeds diverge.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "audit/invariants.hpp"
#include "baseline/cbt.hpp"
#include "baseline/dvmrp.hpp"
#include "baseline/group_host.hpp"
#include "baseline/pim_sm.hpp"
#include "obs/obs.hpp"
#include "relay/participant.hpp"
#include "relay/session_relay.hpp"
#include "testbed/testbed.hpp"
#include "workload/chaos.hpp"
#include "workload/churn.hpp"
#include "workload/topo_gen.hpp"

namespace express {
namespace {

// ---------------------------------------------------------------------
// Registry units
// ---------------------------------------------------------------------

/// A registry-only stats block for the unit tests below.
struct TestStats {
  std::uint64_t hits = 0;
  std::uint64_t peak = 0;  ///< gauge
};

TestStats& bind_test_stats(obs::Registry& reg, obs::Entity entity) {
  return reg.bind<TestStats>(
      entity, {{"test.hits", &TestStats::hits},
               {"test.peak", &TestStats::peak, obs::MetricKind::kGauge}});
}

TEST(ObsRegistry, CounterRoundTrip) {
  obs::Registry reg;
  TestStats& s = bind_test_stats(reg, obs::Entity::router(3));
  ++s.hits;
  s.hits += 4;
  EXPECT_EQ(s.hits, 5u);
  EXPECT_EQ(reg.value("test.hits", obs::Entity::router(3)), 5u);
  EXPECT_EQ(reg.sum("test.hits"), 5u);
  EXPECT_EQ(reg.value("test.hits", obs::Entity::router(4)), 0u);
  EXPECT_EQ(reg.value("test.absent", obs::Entity::router(3)), 0u);
  EXPECT_EQ(reg.size(), 2u);  // one entry per field
}

TEST(ObsRegistry, SumAggregatesOverEntities) {
  obs::Registry reg;
  bind_test_stats(reg, obs::Entity::router(1)).hits += 10;
  bind_test_stats(reg, obs::Entity::router(2)).hits += 32;
  bind_test_stats(reg, obs::Entity::host(1)).hits += 100;
  bind_test_stats(reg, obs::Entity::router(1)).peak = 7;
  // Re-binding router:1 re-pointed both its entries at a fresh block.
  EXPECT_EQ(reg.sum("test.hits"), 132u);
  EXPECT_EQ(reg.sum("test.peak"), 7u);
  EXPECT_EQ(reg.sum("test.absent"), 0u);
}

TEST(ObsRegistry, ReRegistrationZeroesTheSlot) {
  // A fresh module instance re-binding its block starts from zero —
  // stale values must not leak across e.g. testbed rebuilds — while the
  // old block stays valid (the registry owns it) but is no longer read.
  obs::Registry reg;
  TestStats& first = bind_test_stats(reg, obs::Entity::router(1));
  first.hits += 9;
  TestStats& again = bind_test_stats(reg, obs::Entity::router(1));
  EXPECT_NE(&first, &again);
  EXPECT_EQ(again.hits, 0u);
  EXPECT_EQ(reg.value("test.hits", obs::Entity::router(1)), 0u);
  ++again.hits;
  ++first.hits;
  EXPECT_EQ(reg.value("test.hits", obs::Entity::router(1)), 1u);
  EXPECT_EQ(first.hits, 10u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsRegistry, GaugeSetMaxIsAHighWaterMark) {
  obs::Registry reg;
  TestStats& s = bind_test_stats(reg, obs::Entity::network());
  for (std::uint64_t v : {5u, 3u}) s.peak = std::max(s.peak, v);
  EXPECT_EQ(reg.value("test.peak", obs::Entity::network()), 5u);
  s.peak = 2;
  EXPECT_EQ(reg.value("test.peak", obs::Entity::network()), 2u);
  // The field's kind survives into the snapshot.
  const std::string json = reg.snapshot_json(sim::Time{});
  EXPECT_NE(json.find("{\"entity\":\"net\",\"kind\":\"gauge\","
                      "\"name\":\"test.peak\",\"value\":2}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"entity\":\"net\",\"kind\":\"counter\","
                      "\"name\":\"test.hits\",\"value\":0}"),
            std::string::npos)
      << json;
}

TEST(ObsRegistry, HistogramBucketsByBitWidth) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("test.latency", obs::Entity::router(1));
  h.observe(0);   // bucket 0
  h.observe(1);   // bucket 1
  h.observe(2);   // bucket 2: [2, 4)
  h.observe(3);   // bucket 2
  h.observe(4);   // bucket 3: [4, 8)
  const obs::HistogramData& d = h.data();
  EXPECT_EQ(d.count, 5u);
  EXPECT_EQ(d.sum, 10u);
  EXPECT_EQ(d.buckets[0], 1u);
  EXPECT_EQ(d.buckets[1], 1u);
  EXPECT_EQ(d.buckets[2], 2u);
  EXPECT_EQ(d.buckets[3], 1u);
}

TEST(ObsRegistry, UnboundModuleStillCounts) {
  // A module built without a scope (unit tests, micro-benches) binds to
  // the global plane under a fresh anonymous entity and counts there.
  FlatFib fib;
  const ip::ChannelId channel{ip::Address(10, 0, 0, 1),
                              ip::Address(232, 0, 0, 1)};
  fib.upsert(channel).iif = 1;
  EXPECT_NE(fib.lookup(channel, 1), nullptr);
  EXPECT_EQ(fib.lookup(channel, 2), nullptr);
  const FibStats s = fib.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.rpf_drops, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ObsRegistry, BlockOutlivesItsModuleOnTheGlobalPlane) {
  // Standalone modules share the process-global plane, which outlives
  // them: the registry, not the module, owns the block, so a snapshot
  // taken after the module is destroyed reads valid memory (ASan
  // builds check this) and still reports the final counts.
  const obs::Scope scope = obs::Scope{}.resolved();
  {
    FlatFib fib(scope);
    const ip::ChannelId channel{ip::Address(10, 0, 0, 2),
                                ip::Address(232, 0, 0, 2)};
    fib.upsert(channel).iif = 0;
    for (int i = 0; i < 3; ++i) (void)fib.lookup(channel, 0);
  }
  const obs::Registry& reg = obs::Plane::global().registry;
  EXPECT_EQ(reg.value("express.fib.lookups", scope.entity), 3u);
  EXPECT_EQ(reg.value("express.fib.entries", scope.entity), 1u);
  const std::string json = reg.snapshot_json(sim::Time{});
  EXPECT_NE(json.find("{\"entity\":\"" + scope.entity.to_string() +
                      "\",\"kind\":\"counter\",\"name\":"
                      "\"express.fib.lookups\",\"value\":3}"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------

TEST(ObsTrace, DisabledTraceRecordsNothing) {
  obs::Trace trace;
  trace.emit(sim::seconds(1), obs::Entity::router(1),
             obs::TraceType::kTimerFire, 42);
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.next_index(), 0u);
}

TEST(ObsTrace, RingOverwritesOldestButIndexKeepsGrowing) {
  obs::Trace trace;
  trace.enable(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    trace.emit(sim::Time{} + sim::milliseconds(i), obs::Entity::router(1),
               obs::TraceType::kTimerFire, i);
  }
  EXPECT_EQ(trace.next_index(), 6u);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.at(0).index, 2u);  // oldest retained
  EXPECT_EQ(trace.at(3).index, 5u);  // newest
}

TEST(ObsTrace, FilteredExportAfterWraparoundDropsExactlyTheOverwrittenPrefix) {
  // Pin the wraparound arithmetic the repair-path analysis leans on:
  // after the ring wraps, at(i) walks oldest-to-newest with strictly
  // monotone global indices, and a filtered export sees exactly the
  // retained suffix — no resurrected overwritten records, no holes.
  obs::Trace trace;
  trace.enable(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    // Alternate type and entity so the filters have something to split.
    trace.emit(sim::Time{} + sim::milliseconds(i),
               obs::Entity::router(static_cast<std::uint32_t>(i % 2)),
               i % 2 == 0 ? obs::TraceType::kPacketSent
                          : obs::TraceType::kRetransmit,
               i);
  }
  EXPECT_EQ(trace.next_index(), 20u);
  ASSERT_EQ(trace.size(), 8u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.at(i).index, 12u + i);  // records 0..11 overwritten
    EXPECT_EQ(trace.at(i).a, 12u + i);      // payload moved with the index
  }
  obs::TraceFilter retransmits;
  retransmits.type = obs::TraceType::kRetransmit;
  // Retained indices 12..19 hold four odd (kRetransmit) records.
  EXPECT_EQ(trace.count(retransmits), 4u);
  const std::string jsonl = trace.to_jsonl(retransmits);
  std::size_t lines = 0;
  for (char c : jsonl) lines += c == '\n';
  EXPECT_EQ(lines, 4u);
  EXPECT_EQ(jsonl.find("\"index\":11"), std::string::npos);  // overwritten
  EXPECT_NE(jsonl.find("\"index\":13"), std::string::npos);  // oldest odd kept
  EXPECT_NE(jsonl.find("\"index\":19"), std::string::npos);  // newest
  // Export order is oldest first even across the wrap seam.
  EXPECT_LT(jsonl.find("\"index\":13"), jsonl.find("\"index\":19"));
}

TEST(ObsTrace, FilterByEntityAndType) {
  obs::Trace trace;
  trace.enable(16);
  trace.emit(sim::seconds(1), obs::Entity::router(1),
             obs::TraceType::kTimerFire);
  trace.emit(sim::seconds(2), obs::Entity::router(2),
             obs::TraceType::kTimerFire);
  trace.emit(sim::seconds(3), obs::Entity::router(1),
             obs::TraceType::kPacketSent);
  obs::TraceFilter by_entity;
  by_entity.entity = obs::Entity::router(1);
  EXPECT_EQ(trace.count(by_entity), 2u);
  obs::TraceFilter by_type;
  by_type.type = obs::TraceType::kTimerFire;
  EXPECT_EQ(trace.count(by_type), 2u);
  by_entity.type = obs::TraceType::kPacketSent;
  EXPECT_EQ(trace.count(by_entity), 1u);
}

TEST(ObsTrace, JsonlIsCanonical) {
  obs::Trace trace;
  trace.enable(4);
  trace.emit(sim::milliseconds(5), obs::Entity::router(7),
             obs::TraceType::kTimerFire, 1, 2, 3);
  EXPECT_EQ(trace.to_jsonl(),
            "{\"a\":1,\"b\":2,\"c\":3,\"entity\":\"router:7\",\"index\":0,"
            "\"time_ns\":5000000,\"type\":\"timer_fire\"}\n");
}

// ---------------------------------------------------------------------
// Views equal the registry (RouterStats aggregation, every block)
// ---------------------------------------------------------------------

void run_churn(Testbed& bed, std::uint64_t seed) {
  const ip::ChannelId channel = bed.source().allocate_channel();
  sim::Rng rng(seed);
  const sim::Duration horizon = sim::seconds(10);
  const auto events = workload::poisson_churn(
      static_cast<std::uint32_t>(bed.receiver_count()), horizon,
      sim::seconds(5), sim::seconds(3), rng);
  auto& sched = bed.net().scheduler();
  for (const auto& ev : events) {
    sched.schedule_at(ev.at, [&bed, &channel, ev] {
      if (ev.join) {
        bed.receiver(ev.host_index).new_subscription(channel);
      } else {
        bed.receiver(ev.host_index).delete_subscription(channel);
      }
    });
  }
  const std::vector<std::uint8_t> header(32, 0x5A);
  std::uint64_t seq = 0;
  for (sim::Time at = sim::milliseconds(200); at < horizon;
       at += sim::milliseconds(200)) {
    sched.schedule_at(at, [&bed, &channel, s = seq++] {
      bed.source().send(channel, 500, s);
    });
  }
  bed.net().run();
}

TEST(ObsViews, RouterStatsEqualsRegistrySlotsAfterSeededChurn) {
  Testbed bed(workload::make_kary_tree(2, 3, {}, 2));
  run_churn(bed, 7);

  const obs::Registry& reg = bed.net().obs().registry;
  std::uint64_t churn_events = 0;
  for (std::size_t i = 0; i < bed.router_count(); ++i) {
    const ExpressRouter& r = bed.router(i);
    const obs::Entity e = obs::Entity::router(r.id());
    const RouterStats s = r.stats();
    EXPECT_EQ(s.subscribe_events, reg.value("express.sub.subscribe_events", e));
    EXPECT_EQ(s.unsubscribe_events,
              reg.value("express.sub.unsubscribe_events", e));
    EXPECT_EQ(s.joins_sent, reg.value("express.sub.joins_sent", e));
    EXPECT_EQ(s.prunes_sent, reg.value("express.sub.prunes_sent", e));
    EXPECT_EQ(s.counts_sent, reg.value("ecmp.transport.counts_sent", e));
    EXPECT_EQ(s.counts_received,
              reg.value("ecmp.transport.counts_received", e));
    EXPECT_EQ(s.control_bytes_sent,
              reg.value("ecmp.transport.control_bytes_sent", e));
    EXPECT_EQ(s.proactive_updates_sent,
              reg.value("express.counting.proactive_updates_sent", e));
    EXPECT_EQ(s.data_packets_forwarded,
              reg.value("express.fwd.data_packets_forwarded", e));
    EXPECT_EQ(s.data_copies_sent,
              reg.value("express.fwd.data_copies_sent", e));
    churn_events += s.subscribe_events + s.unsubscribe_events;
  }
  EXPECT_GT(churn_events, 0u);  // the scenario actually exercised churn

  // And the cross-router sums the benches publish match a registry sum.
  std::uint64_t fwd = 0;
  for (std::size_t i = 0; i < bed.router_count(); ++i) {
    fwd += bed.router(i).stats().data_packets_forwarded;
  }
  EXPECT_EQ(fwd, reg.sum("express.fwd.data_packets_forwarded"));
}

// Independent name tables for every `*Stats` view: kept apart from the
// modules' own bind() tables, so a field bound under the wrong name (or
// not bound at all) shows up as a mismatch here.
template <class S>
using ViewTable = std::vector<obs::Field<S>>;

const ViewTable<HostStats> kHostTable = {
    {"express.host.data_received", &HostStats::data_received},
    {"express.host.data_sent", &HostStats::data_sent},
    {"express.host.unwanted_data", &HostStats::unwanted_data},
    {"express.host.counts_sent", &HostStats::counts_sent},
    {"express.host.queries_answered", &HostStats::queries_answered},
    {"express.host.control_bytes_sent", &HostStats::control_bytes_sent},
};
const ViewTable<net::NetworkStats> kNetworkTable = {
    {"net.packets_sent", &net::NetworkStats::packets_sent},
    {"net.bytes_sent", &net::NetworkStats::bytes_sent},
    {"net.drop.link_down", &net::NetworkStats::packets_dropped_link_down},
    {"net.drop.no_route", &net::NetworkStats::packets_dropped_no_route},
    {"net.drop.ttl", &net::NetworkStats::packets_dropped_ttl},
    {"net.drop.loss", &net::NetworkStats::packets_dropped_loss},
    {"net.reordered", &net::NetworkStats::packets_reordered},
};
const ViewTable<net::LinkStats> kLinkTable = {
    {"net.link.packets", &net::LinkStats::packets},
    {"net.link.bytes", &net::LinkStats::bytes},
};
/// The registry part only: pending, slab_slots and free_slots are live.
const ViewTable<sim::SchedulerStats> kSchedulerTable = {
    {"sim.sched.scheduled", &sim::SchedulerStats::scheduled},
    {"sim.sched.executed", &sim::SchedulerStats::executed},
    {"sim.sched.cancelled", &sim::SchedulerStats::cancelled},
    {"sim.sched.clamped_past", &sim::SchedulerStats::clamped_past_events},
    {"sim.sched.peak_pending", &sim::SchedulerStats::peak_pending},
};
const ViewTable<FibStats> kFibTable = {
    {"express.fib.lookups", &FibStats::lookups},
    {"express.fib.hits", &FibStats::hits},
    {"express.fib.no_entry_drops", &FibStats::no_entry_drops},
    {"express.fib.rpf_drops", &FibStats::rpf_drops},
    {"express.fib.entries", &FibStats::entries},
};
const ViewTable<ForwardingStats> kForwardingTable = {
    {"express.fwd.data_packets_forwarded",
     &ForwardingStats::data_packets_forwarded},
    {"express.fwd.data_copies_sent", &ForwardingStats::data_copies_sent},
    {"express.fwd.subcasts_relayed", &ForwardingStats::subcasts_relayed},
};
const ViewTable<SubscriptionStats> kSubscriptionTable = {
    {"express.sub.subscribe_events", &SubscriptionStats::subscribe_events},
    {"express.sub.unsubscribe_events", &SubscriptionStats::unsubscribe_events},
    {"express.sub.joins_sent", &SubscriptionStats::joins_sent},
    {"express.sub.prunes_sent", &SubscriptionStats::prunes_sent},
    {"express.sub.auth_rejects", &SubscriptionStats::auth_rejects},
    {"express.sub.key_registrations", &SubscriptionStats::key_registrations},
};
const ViewTable<CountingStats> kCountingTable = {
    {"express.counting.rounds_started", &CountingStats::rounds_started},
    {"express.counting.rounds_completed", &CountingStats::rounds_completed},
    {"express.counting.rounds_timed_out", &CountingStats::rounds_timed_out},
    {"express.counting.proactive_updates_sent",
     &CountingStats::proactive_updates_sent},
};
const ViewTable<ecmp::TransportStats> kTransportTable = {
    {"ecmp.transport.counts_sent", &ecmp::TransportStats::counts_sent},
    {"ecmp.transport.counts_received", &ecmp::TransportStats::counts_received},
    {"ecmp.transport.queries_sent", &ecmp::TransportStats::queries_sent},
    {"ecmp.transport.queries_received",
     &ecmp::TransportStats::queries_received},
    {"ecmp.transport.responses_sent", &ecmp::TransportStats::responses_sent},
    {"ecmp.transport.responses_received",
     &ecmp::TransportStats::responses_received},
    {"ecmp.transport.control_bytes_sent",
     &ecmp::TransportStats::control_bytes_sent},
    {"ecmp.transport.control_bytes_received",
     &ecmp::TransportStats::control_bytes_received},
};
const ViewTable<relay::RelayStats> kRelayTable = {
    {"relay.frames_relayed", &relay::RelayStats::frames_relayed},
    {"relay.dropped_unauthorized", &relay::RelayStats::dropped_unauthorized},
    {"relay.dropped_no_floor", &relay::RelayStats::dropped_no_floor},
    {"relay.floor_grants", &relay::RelayStats::floor_grants},
    {"relay.floor_denials", &relay::RelayStats::floor_denials},
    {"relay.heartbeats_sent", &relay::RelayStats::heartbeats_sent},
    {"relay.channels_announced", &relay::RelayStats::channels_announced},
};
const ViewTable<baseline::PimStats> kPimTable = {
    {"baseline.pim.joins_star_g", &baseline::PimStats::joins_star_g},
    {"baseline.pim.joins_sg", &baseline::PimStats::joins_sg},
    {"baseline.pim.prunes", &baseline::PimStats::prunes},
    {"baseline.pim.registers_sent", &baseline::PimStats::registers_sent},
    {"baseline.pim.registers_decapsulated",
     &baseline::PimStats::registers_decapsulated},
    {"baseline.pim.register_stops", &baseline::PimStats::register_stops},
    {"baseline.pim.data_copies_sent", &baseline::PimStats::data_copies_sent},
    {"baseline.pim.drops", &baseline::PimStats::drops},
};
const ViewTable<baseline::DvmrpStats> kDvmrpTable = {
    {"baseline.dvmrp.data_packets_forwarded",
     &baseline::DvmrpStats::data_packets_forwarded},
    {"baseline.dvmrp.data_copies_sent",
     &baseline::DvmrpStats::data_copies_sent},
    {"baseline.dvmrp.flood_copies", &baseline::DvmrpStats::flood_copies},
    {"baseline.dvmrp.rpf_drops", &baseline::DvmrpStats::rpf_drops},
    {"baseline.dvmrp.prunes_sent", &baseline::DvmrpStats::prunes_sent},
    {"baseline.dvmrp.prunes_received", &baseline::DvmrpStats::prunes_received},
    {"baseline.dvmrp.grafts_sent", &baseline::DvmrpStats::grafts_sent},
    {"baseline.dvmrp.grafts_received", &baseline::DvmrpStats::grafts_received},
};
const ViewTable<baseline::CbtStats> kCbtTable = {
    {"baseline.cbt.joins_sent", &baseline::CbtStats::joins_sent},
    {"baseline.cbt.prunes_sent", &baseline::CbtStats::prunes_sent},
    {"baseline.cbt.data_copies_sent", &baseline::CbtStats::data_copies_sent},
    {"baseline.cbt.encapsulated_to_core",
     &baseline::CbtStats::encapsulated_to_core},
    {"baseline.cbt.decapsulated_at_core",
     &baseline::CbtStats::decapsulated_at_core},
    {"baseline.cbt.drops", &baseline::CbtStats::drops},
};
const ViewTable<baseline::GroupHostStats> kGroupHostTable = {
    {"baseline.group_host.data_received",
     &baseline::GroupHostStats::data_received},
    {"baseline.group_host.data_filtered",
     &baseline::GroupHostStats::data_filtered},
    {"baseline.group_host.unwanted_data",
     &baseline::GroupHostStats::unwanted_data},
    {"baseline.group_host.bytes_on_last_hop",
     &baseline::GroupHostStats::bytes_on_last_hop},
    {"baseline.group_host.data_sent", &baseline::GroupHostStats::data_sent},
};

/// Compares every field of `view` with its registry slot at `entity`
/// and adds the field values to `total` (so a scenario can show it
/// moved the view at all). The table must cover every member.
template <class S>
void expect_view(const obs::Registry& reg, obs::Entity entity, const S& view,
                 const ViewTable<S>& table, std::uint64_t& total) {
  if (!std::is_same_v<S, sim::SchedulerStats>) {
    EXPECT_EQ(table.size() * sizeof(std::uint64_t), sizeof(S));
  }
  for (const obs::Field<S>& field : table) {
    EXPECT_EQ(view.*field.member, reg.value(field.name, entity))
        << field.name << " at " << entity.to_string();
    total += view.*field.member;
  }
}

/// Network-level views shared by every scenario: the fabric, each
/// link, and the scheduler.
void expect_network_views(net::Network& net, std::uint64_t& total) {
  const obs::Registry& reg = net.obs().registry;
  expect_view(reg, obs::Entity::network(), net.stats(), kNetworkTable, total);
  for (net::LinkId l = 0; l < net.topology().link_count(); ++l) {
    expect_view(reg, obs::Entity::link(l), net.link_stats(l), kLinkTable,
                total);
  }
  expect_view(reg, obs::Entity::network(), net.scheduler().stats(),
              kSchedulerTable, total);
}

/// A small group-model scenario for baseline router type R: two
/// receivers join, the source sends three packets.
template <class R, class Config, class S>
std::uint64_t run_baseline_views(Config config, ip::Protocol protocol,
                                 const ViewTable<S>& table,
                                 std::uint64_t& host_total) {
  auto topo = workload::make_kary_tree(2, 2);
  if constexpr (std::is_same_v<Config, baseline::PimConfig>) {
    config.rp = topo.topology.node(topo.routers[2]).address;
  } else if constexpr (std::is_same_v<Config, baseline::CbtConfig>) {
    config.core = topo.topology.node(topo.routers[1]).address;
  }
  net::Network net(std::move(topo.topology));
  std::vector<R*> routers;
  for (net::NodeId r : topo.routers) {
    routers.push_back(&net.attach<R>(r, config));
  }
  auto& source = net.attach<baseline::GroupHost>(topo.source_host);
  std::vector<baseline::GroupHost*> hosts{&source};
  for (net::NodeId h : topo.receiver_hosts) {
    hosts.push_back(&net.attach<baseline::GroupHost>(h));
  }
  const ip::Address group(225, 1, 2, 3);
  hosts[1]->join_group(group, protocol);
  hosts[4]->join_group(group, protocol);
  net.run_until(net.now() + sim::seconds(1));
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    source.send_to_group(group, 100, seq);
    net.run_until(net.now() + sim::milliseconds(300));
  }
  hosts[4]->leave_group(group, protocol);
  net.run_until(net.now() + sim::seconds(1));

  const obs::Registry& reg = net.obs().registry;
  std::uint64_t total = 0;
  for (R* r : routers) {
    expect_view(reg, obs::Entity::router(r->id()), r->stats(), table, total);
  }
  for (baseline::GroupHost* h : hosts) {
    expect_view(reg, obs::Entity::host(h->id()), h->stats(), kGroupHostTable,
                host_total);
  }
  std::uint64_t net_total = 0;
  expect_network_views(net, net_total);
  EXPECT_GT(net_total, 0u);
  return total;
}

TEST(ObsViews, EveryStatsViewEqualsItsRegistrySlots) {
  // EXPRESS: the seeded churn of the RouterStats test plus a count.
  {
    Testbed bed(workload::make_kary_tree(2, 3, {}, 2));
    run_churn(bed, 7);
    const ip::ChannelId channel = bed.source().allocate_channel();
    bed.receiver(0).new_subscription(channel);
    bed.run_for(sim::seconds(1));
    bool counted = false;
    bed.source().count_query(channel, ecmp::kSubscriberId, sim::seconds(2),
                             [&counted](CountResult) { counted = true; });
    bed.run_for(sim::seconds(3));
    ASSERT_TRUE(counted);

    const obs::Registry& reg = bed.net().obs().registry;
    std::uint64_t fib = 0, fwd = 0, sub = 0, counting = 0, wire = 0,
                  host = 0, net_total = 0;
    for (std::size_t i = 0; i < bed.router_count(); ++i) {
      const ExpressRouter& r = bed.router(i);
      const obs::Entity e = obs::Entity::router(r.id());
      expect_view(reg, e, r.fib().stats(), kFibTable, fib);
      EXPECT_EQ(r.fib().stats().entries, r.fib().size());
      expect_view(reg, e, r.forwarding_stats(), kForwardingTable, fwd);
      expect_view(reg, e, r.subscription_stats(), kSubscriptionTable, sub);
      expect_view(reg, e, r.counting_stats(), kCountingTable, counting);
      expect_view(reg, e, r.transport_stats(), kTransportTable, wire);
    }
    expect_view(reg, obs::Entity::host(bed.source().id()),
                bed.source().stats(), kHostTable, host);
    for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
      expect_view(reg, obs::Entity::host(bed.receiver(i).id()),
                  bed.receiver(i).stats(), kHostTable, host);
    }
    expect_network_views(bed.net(), net_total);
    for (std::uint64_t t : {fib, fwd, sub, counting, wire, host, net_total}) {
      EXPECT_GT(t, 0u);
    }
  }

  // Session relay on a star: one authorized and one unauthorized speaker.
  {
    Testbed bed(workload::make_star(4, 1));
    relay::SessionRelay sr(bed.source(), relay::RelayConfig{});
    std::vector<std::unique_ptr<relay::Participant>> participants;
    for (std::size_t i = 0; i < 3; ++i) {
      participants.push_back(std::make_unique<relay::Participant>(
          bed.receiver(i), sr.channel(), bed.source().address()));
      participants.back()->join();
    }
    bed.run_for(sim::seconds(1));
    sr.start();
    sr.authorize(bed.receiver(0).address());
    participants[0]->speak(500);
    participants[1]->speak(500);
    bed.run_for(sim::seconds(1));
    std::uint64_t relayed = 0, host = 0, net_total = 0;
    expect_view(bed.net().obs().registry, obs::Entity::relay(bed.source().id()),
                sr.stats(), kRelayTable, relayed);
    EXPECT_EQ(sr.stats().frames_relayed, 1u);
    EXPECT_EQ(sr.stats().dropped_unauthorized, 1u);
    for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
      expect_view(bed.net().obs().registry,
                  obs::Entity::host(bed.receiver(i).id()),
                  bed.receiver(i).stats(), kHostTable, host);
    }
    expect_network_views(bed.net(), net_total);
    EXPECT_GT(host, 0u);
  }

  // The group-model baselines.
  std::uint64_t group_hosts = 0;
  EXPECT_GT((run_baseline_views<baseline::PimSmRouter>(
                baseline::PimConfig{}, ip::Protocol::kPim, kPimTable,
                group_hosts)),
            0u);
  EXPECT_GT((run_baseline_views<baseline::DvmrpRouter>(
                baseline::DvmrpConfig{}, ip::Protocol::kIgmp, kDvmrpTable,
                group_hosts)),
            0u);
  EXPECT_GT((run_baseline_views<baseline::CbtRouter>(
                baseline::CbtConfig{}, ip::Protocol::kCbt, kCbtTable,
                group_hosts)),
            0u);
  EXPECT_GT(group_hosts, 0u);
}

// ---------------------------------------------------------------------
// Snapshot determinism (satellite: byte-identical artifacts)
// ---------------------------------------------------------------------

/// Capture {metrics snapshot, trace JSONL} for a seeded churn run.
std::pair<std::string, std::string> capture_churn(std::uint64_t seed) {
  Testbed bed(workload::make_kary_tree(2, 3, {}, 2));
  bed.net().obs().trace.enable(1 << 16);
  run_churn(bed, seed);
  const obs::Plane& plane = bed.net().obs();
  return {plane.registry.snapshot_json(bed.net().now()),
          plane.trace.to_jsonl()};
}

TEST(ObsDeterminism, SameSeedChurnCapturesAreByteIdentical) {
  const auto a = capture_churn(7);
  const auto b = capture_churn(7);
  EXPECT_GT(a.first.size(), 0u);
  EXPECT_GT(a.second.size(), 0u);
  EXPECT_EQ(a.first, b.first);    // metrics snapshot
  EXPECT_EQ(a.second, b.second);  // trace JSONL
}

TEST(ObsDeterminism, DifferentSeedDiverges) {
  const auto a = capture_churn(7);
  const auto b = capture_churn(8);
  EXPECT_NE(a.second, b.second);
}

/// Capture the observability artifacts of a seeded chaos soak: faults
/// injected and healed over a transit-stub topology with churn in
/// flight, audited at every settle step.
std::pair<std::string, std::string> capture_chaos(std::uint64_t seed) {
  sim::Rng topo_rng(seed);
  Testbed bed(workload::make_transit_stub(4, 2, 2, topo_rng));
  bed.net().obs().trace.enable(1 << 16);
  const ip::ChannelId channel = bed.source().allocate_channel();
  for (std::size_t i = 0; i < bed.receiver_count(); i += 3) {
    bed.receiver(i).new_subscription(channel);
  }
  bed.net().run_until(sim::seconds(2));

  workload::FaultPlanConfig plan;
  plan.fault_count = 4;
  sim::Rng fault_rng(seed + 1);
  const auto schedule = workload::make_fault_schedule(bed.net().topology(),
                                                      plan, fault_rng);
  const auto report = workload::run_chaos_campaign(
      bed.net(), schedule, workload::ChaosConfig{}, [&bed] {
        return audit::InvariantAuditor(bed.net()).run().violations.size();
      });
  EXPECT_EQ(report.violations, 0u);

  const obs::Plane& plane = bed.net().obs();
  return {plane.registry.snapshot_json(bed.net().now()),
          plane.trace.to_jsonl()};
}

TEST(ObsDeterminism, SameSeedChaosSoaksAreByteIdentical) {
  const auto a = capture_chaos(11);
  const auto b = capture_chaos(11);
  EXPECT_NE(a.second.find("fault_inject"), std::string::npos);
  EXPECT_NE(a.second.find("fault_heal"), std::string::npos);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---------------------------------------------------------------------
// Audit anchoring: violations reference trace indices
// ---------------------------------------------------------------------

TEST(ObsAudit, ViolationsCarryTheTracePosition) {
  Testbed bed(workload::make_kary_tree(2, 2, {}, 2));
  bed.net().obs().trace.enable(1 << 12);
  const ip::ChannelId channel = bed.source().allocate_channel();
  bed.receiver(0).new_subscription(channel);
  // Audit mid-flight: the leaf router processed the join but its Count
  // to the parent is still on the wire, so conservation disagrees.
  bed.run_for(sim::milliseconds(2));
  const std::uint64_t emitted = bed.net().obs().trace.next_index();
  ASSERT_GT(emitted, 0u);

  const auto report = audit::InvariantAuditor(bed.net()).run();
  ASSERT_FALSE(report.violations.empty());
  for (const auto& v : report.violations) {
    // Anchored at audit time: every event with index < trace_index
    // preceded the violation (the audit itself emits nothing).
    EXPECT_EQ(v.trace_index, emitted);
  }
}

}  // namespace
}  // namespace express
