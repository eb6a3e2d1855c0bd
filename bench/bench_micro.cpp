// Google-benchmark microbenchmarks for the hot paths the §5.3 analysis
// cares about: FIB lookup, ECMP codec, subscription-event processing,
// routing recomputation, and the error-curve evaluation; plus the two
// substrate kernels every run sits on: the event scheduler and per-hop
// packet fan-out through the full stack.
#include <benchmark/benchmark.h>

#include <array>
#include <unordered_map>
#include <vector>

#include "counting/error_curve.hpp"
#include "ecmp/codec.hpp"
#include "express/fib.hpp"
#include "express/router.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "testbed/testbed.hpp"
#include "workload/topo_gen.hpp"

namespace {

using namespace express;

ip::ChannelId channel_n(std::uint32_t n) {
  return ip::ChannelId{ip::Address(10, 0, 0, 1), ip::Address::single_source(n)};
}

void BM_FibLookupHit(benchmark::State& state) {
  Fib fib;
  const auto entries = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < entries; ++i) {
    FibEntry& e = fib.upsert(channel_n(i));
    e.iif = 0;
    e.oifs.set(3);
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fib.lookup(channel_n(i), 0));
    i = (i + 2654435761u) % entries;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FibLookupHit)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_FibLookupMiss(benchmark::State& state) {
  Fib fib;
  for (std::uint32_t i = 0; i < 100000; ++i) {
    fib.upsert(channel_n(i)).iif = 0;
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fib.lookup(channel_n(200000 + i), 0));
    i = (i + 1) % 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FibLookupMiss);

// Reference row: the same hit workload against std::unordered_map with
// identical lookup semantics (RPF check included), so the FlatFib gain
// is visible side by side in one report.
void BM_UnorderedFibLookupHit(benchmark::State& state) {
  std::unordered_map<ip::ChannelId, FibEntry> fib;
  const auto entries = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < entries; ++i) {
    FibEntry& e = fib[channel_n(i)];
    e.iif = 0;
    e.oifs.set(3);
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    auto it = fib.find(channel_n(i));
    const FibEntry* hit =
        (it != fib.end() && it->second.iif == 0) ? &it->second : nullptr;
    benchmark::DoNotOptimize(hit);
    i = (i + 2654435761u) % entries;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnorderedFibLookupHit)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_EcmpEncodeCount(benchmark::State& state) {
  ecmp::Count msg;
  msg.channel = channel_n(7);
  msg.count = 12345;
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    out.clear();
    ecmp::encode(ecmp::Message{msg}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EcmpEncodeCount);

void BM_EcmpDecodeSegment(benchmark::State& state) {
  // A full 1480-byte segment of 92 Counts, the §5.3 batching unit.
  std::vector<std::uint8_t> segment;
  ecmp::Count msg;
  msg.channel = channel_n(7);
  msg.count = 1;
  for (int i = 0; i < 92; ++i) ecmp::encode(ecmp::Message{msg}, segment);
  for (auto _ : state) {
    auto messages = ecmp::decode_all(segment);
    benchmark::DoNotOptimize(messages.size());
  }
  state.SetItemsProcessed(state.iterations() * 92);
}
BENCHMARK(BM_EcmpDecodeSegment);

void BM_SubscribeEvent(benchmark::State& state) {
  // Full router event: decode + hashed lookup + state + FIB + upstream
  // send — the §5.3 per-event cost.
  net::Topology topo;
  const net::NodeId core = topo.add_router();
  const net::NodeId child = topo.add_router();
  const net::NodeId up = topo.add_router();
  const net::NodeId src = topo.add_host();
  topo.add_link(core, child);
  topo.add_link(core, up);
  topo.add_link(up, src);
  net::Network network(std::move(topo));
  auto& router = network.attach<ExpressRouter>(core);
  struct Sink : net::Node {
    Sink(net::Network& n, net::NodeId i) : net::Node(n, i) {}
    void handle_packet(const net::Packet&, std::uint32_t) override {}
  };
  network.attach<Sink>(child);
  network.attach<Sink>(up);
  network.attach<Sink>(src);
  const ip::Address src_addr = network.topology().node(src).address;

  std::uint32_t i = 0;
  std::int64_t toggle = 1;
  for (auto _ : state) {
    ecmp::Count msg;
    msg.channel =
        ip::ChannelId{src_addr, ip::Address::single_source(i % 4096)};
    msg.count = toggle;
    net::Packet packet;
    packet.src = network.topology().node(child).address;
    packet.dst = network.topology().node(core).address;
    packet.protocol = ip::Protocol::kEcmp;
    packet.payload = ecmp::encode(ecmp::Message{msg});
    router.handle_packet(packet, 0);
    if (++i % 4096 == 0) {
      toggle = 1 - toggle;  // alternate subscribe/unsubscribe sweeps
      state.PauseTiming();
      network.run();  // drain queued upstream messages
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubscribeEvent);

// One destination-rooted shortest-path tree: invalidate the cache, then
// query toward a destination whose tree is not built yet.
void BM_RoutingTreeBuild(benchmark::State& state) {
  sim::Rng rng(3);
  auto g = workload::make_transit_stub(
      static_cast<std::uint32_t>(state.range(0)), 3, 2, rng);
  net::UnicastRouting routing(g.topology);
  const auto n = static_cast<net::NodeId>(g.topology.node_count());
  net::NodeId dest = 0;
  for (auto _ : state) {
    routing.recompute();
    benchmark::DoNotOptimize(routing.rpf_neighbor(g.source_host, dest));
    dest = (dest + 1) % n;
  }
}
BENCHMARK(BM_RoutingTreeBuild)->Arg(4)->Arg(16);

// The per-hop RPF read once the tree toward the source is cached.
void BM_RoutingCachedQuery(benchmark::State& state) {
  sim::Rng rng(3);
  auto g = workload::make_transit_stub(16, 3, 2, rng);
  net::UnicastRouting routing(g.topology);
  const auto n = static_cast<net::NodeId>(g.topology.node_count());
  net::NodeId from = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing.rpf_neighbor(from, g.source_host));
    from = (from + 1) % n;
  }
}
BENCHMARK(BM_RoutingCachedQuery);

void BM_ErrorCurveEvaluate(benchmark::State& state) {
  counting::ErrorCurve curve(counting::CurveParams{0.3, 120, 4});
  double dt = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.tolerance(dt));
    dt += 0.1;
    if (dt > 119) dt = 0.1;
  }
}
BENCHMARK(BM_ErrorCurveEvaluate);

// Rounds of batched schedule -> cancel-a-slice -> drain. The closure is
// transmit-shaped: it captures a 64-byte packet-sized blob plus a
// counter reference, like the link-delivery events that dominate every
// run. One event in eight gets a decoy twin that is cancelled before
// the drain, exercising the handle machinery the protocol timers use.
// items_per_second is fired events per second.
void BM_SchedulerTransmitShaped(benchmark::State& state) {
  constexpr std::int64_t kBatch = 4096;
  sim::Scheduler s;
  std::uint64_t fired = 0;
  std::array<std::uint8_t, 64> blob{};
  blob[0] = 1;
  std::vector<sim::EventHandle> decoys;
  std::int64_t t = 1;
  for (auto _ : state) {
    decoys.clear();
    for (std::int64_t i = 0; i < kBatch; ++i) {
      const sim::Time when{t + i};
      s.schedule_at(when, [&fired, blob] { fired += blob[0]; });
      if ((i & 7) == 0) {
        decoys.push_back(
            s.schedule_at(when, [&fired, blob] { fired += blob[0]; }));
      }
    }
    for (auto& h : decoys) h.cancel();
    s.run();
    t += kBatch;
  }
  if (fired != static_cast<std::uint64_t>(state.iterations()) * kBatch) {
    state.SkipWithError("a cancelled decoy fired or an event was lost");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_SchedulerTransmitShaped);

// One 1000-byte data packet per iteration from the source across a
// 256-way star (hub router, 256 leaf routers, one subscribed host
// each): 513 link transmissions through fabric, forwarding and host
// delivery. s_per_hop is the time per transmission (the console prints
// it in ns). Arg batching:1 coalesces same-arrival copies into one
// delivery event (the default); batching:0 gives every copy its own
// event. The fixed 2000 sends keep the per-host delivery logs small.
void BM_FanoutStar256(benchmark::State& state) {
  Testbed bed(workload::make_star(256, 1));
  bed.net().set_fanout_batching(state.range(0) != 0);
  const ip::ChannelId channel = bed.source().allocate_channel();
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    bed.receiver(i).new_subscription(channel);
  }
  bed.run_for(sim::seconds(2));  // settle joins

  const std::uint64_t hops_before = bed.net().stats().packets_sent;
  const std::vector<std::uint8_t> header(200, 0xAB);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    bed.source().send(channel, 1000, seq++, header);
    bed.run_for(sim::milliseconds(10));
  }
  const std::uint64_t hops = bed.net().stats().packets_sent - hops_before;
  if (hops != seq * (1 + 2 * bed.receiver_count())) {
    state.SkipWithError("fan-out did not reach every subscriber");
  }
  state.counters["s_per_hop"] = benchmark::Counter(
      static_cast<double>(hops),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FanoutStar256)->ArgName("batching")->Arg(1)->Arg(0)
    ->Iterations(2000);

}  // namespace

BENCHMARK_MAIN();
