#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "audit/invariants.hpp"
#include "ecmp/count_id.hpp"
#include "express/host.hpp"
#include "express/router.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "sim/random.hpp"
#include "trace.hpp"
#include "workload/churn.hpp"
#include "workload/topo_gen.hpp"

namespace perfbench {
namespace {

using namespace express;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kDataBytes = 1200;
constexpr std::size_t kMaxProblems = 8;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident memory of this process so far. Setup only allocates,
/// so across a setup step its growth is that step's RSS growth.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Nearest-rank percentile of `values` (0 when empty).
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(values.size()))));
  return values[std::min(rank, values.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One scheduled input to the simulator, generated from the seed before
/// the run. The harness turns each into a closure that makes one host
/// call at `at`.
struct Command {
  enum class Kind : std::uint8_t { kJoin, kLeave, kSend, kQuery };
  sim::Time at{};
  Kind kind = Kind::kSend;
  std::uint32_t host = 0;     ///< receiver index (joins/leaves)
  std::uint32_t channel = 0;  ///< index into the source's channels
  std::uint64_t sequence = 0;
};

/// The harness every workload shares: it generates and wires the
/// network (setup), feeds the command stream to the scheduler one
/// run_until slice at a time, and records spans around each call.
class Harness {
 public:
  explicit Harness(const Options& options)
      : tracer_(options.traced), trace_out_(options.trace_out) {}

  template <typename MakeTopology>
  void setup(const char* generator, MakeTopology make) {
    const auto t0 = Clock::now();
    ScopedSpan root(tracer_, "setup", Layer::kBench);
    setup_span_ = root.index();
    std::optional<workload::GeneratedTopology> generated;
    {
      ScopedSpan s(tracer_, generator, Layer::kWorkload);
      generated.emplace(make());
    }
    roles_ = std::move(*generated);
    const double rss_before = peak_rss_mb();
    {
      ScopedSpan s(tracer_, "Network::Network", Layer::kNet);
      network_ = std::make_unique<net::Network>(std::move(roles_.topology));
    }
    network_build_rss_mb_ = peak_rss_mb() - rss_before;
    {
      ScopedSpan s(tracer_, "Network::attach", Layer::kTestbed);
      for (net::NodeId id : roles_.routers) {
        routers_.push_back(&network_->attach<ExpressRouter>(id));
      }
      source_ = &network_->attach<ExpressHost>(roles_.source_host);
      for (net::NodeId id : roles_.receiver_hosts) {
        receivers_.push_back(&network_->attach<ExpressHost>(id));
      }
    }
    setup_s_ = since(t0);
  }

  const net::Topology& topology() const { return network_->topology(); }
  const workload::GeneratedTopology& roles() const { return roles_; }
  ExpressHost& receiver(std::size_t i) { return *receivers_[i]; }
  std::size_t receiver_count() const { return receivers_.size(); }
  std::uint64_t unwanted_deliveries() const {
    std::uint64_t n = 0;
    for (const ExpressHost* r : receivers_) n += r->stats().unwanted_data;
    return n;
  }
  const std::vector<ExpressRouter*>& routers() const { return routers_; }
  const std::vector<ip::ChannelId>& channels() const { return channels_; }

  /// Start the run clock; the source allocates `channels` channels.
  void begin_run(std::uint32_t channels, std::vector<Command> commands) {
    std::stable_sort(commands.begin(), commands.end(),
                     [](const Command& a, const Command& b) { return a.at < b.at; });
    commands_ = std::move(commands);
    next_command_ = 0;
    run_t0_ = Clock::now();
    if (tracer_.armed()) run_span_ = tracer_.open("run", Layer::kBench);
    for (std::uint32_t c = 0; c < channels; ++c) {
      channels_.push_back(source_->allocate_channel());
    }
  }

  /// Stop the run clock. Everything after this is checking, not running.
  void end_run() {
    run_s_ = since(run_t0_);
    if (tracer_.armed()) tracer_.close(run_span_);
  }

  /// Advance the simulation to `deadline` in slices of at most one
  /// simulated second, scheduling each slice's commands just before it.
  void run_to(sim::Time deadline) {
    while (network_->now() < deadline) {
      const sim::Time slice_end =
          std::min(deadline, network_->now() + sim::seconds(1));
      ScopedSpan s(tracer_, "Network::run_until", Layer::kSim);
      auto& scheduler = network_->scheduler();
      while (next_command_ < commands_.size() &&
             commands_[next_command_].at < slice_end) {
        const Command cmd = commands_[next_command_++];
        scheduler.schedule_at(cmd.at, [this, cmd] { execute(cmd); });
      }
      network_->run_until(slice_end);
    }
  }

  void set_link_up(net::LinkId link, bool up) {
    ScopedSpan s(tracer_, "Network::set_link_up", Layer::kNet);
    network_->set_link_up(link, up);
  }

  audit::AuditReport audit() {
    ScopedSpan s(tracer_, "InvariantAuditor::run", Layer::kAudit);
    audit::AuditReport report = audit::InvariantAuditor(*network_).run();
    audit_violations_ += report.violations.size();
    return report;
  }

  /// Count-query results, in completion order.
  struct QueryResult {
    std::uint32_t channel = 0;
    CountResult result;
  };
  const std::vector<QueryResult>& query_results() const { return queries_; }
  std::uint64_t queries_issued() const { return queries_issued_; }

  /// Fill the timings, wire counters and per-layer metrics of `out`, and
  /// write the spans of an armed run.
  void report(Outcome& out) const;

 private:
  void execute(const Command& cmd) {
    const ip::ChannelId& channel = channels_[cmd.channel];
    switch (cmd.kind) {
      case Command::Kind::kJoin: {
        ScopedSpan s(tracer_, "ExpressHost::new_subscription", Layer::kExpress);
        receivers_[cmd.host]->new_subscription(channel);
        break;
      }
      case Command::Kind::kLeave: {
        ScopedSpan s(tracer_, "ExpressHost::delete_subscription",
                     Layer::kExpress);
        receivers_[cmd.host]->delete_subscription(channel);
        break;
      }
      case Command::Kind::kSend: {
        ScopedSpan s(tracer_, "ExpressHost::send", Layer::kExpress);
        source_->send(channel, kDataBytes, cmd.sequence);
        break;
      }
      case Command::Kind::kQuery: {
        ScopedSpan s(tracer_, "ExpressHost::count_query", Layer::kExpress);
        ++queries_issued_;
        source_->count_query(channel, ecmp::kSubscriberId, sim::seconds(2),
                             [this, c = cmd.channel](CountResult r) {
                               queries_.push_back(QueryResult{c, r});
                             });
        break;
      }
    }
  }

  Tracer tracer_;
  std::string trace_out_;
  workload::GeneratedTopology roles_;
  std::unique_ptr<net::Network> network_;
  std::vector<ExpressRouter*> routers_;
  std::vector<ExpressHost*> receivers_;
  ExpressHost* source_ = nullptr;
  std::vector<ip::ChannelId> channels_;
  std::vector<Command> commands_;
  std::size_t next_command_ = 0;
  std::vector<QueryResult> queries_;
  std::uint64_t queries_issued_ = 0;
  std::uint64_t audit_violations_ = 0;
  double setup_s_ = 0;
  double run_s_ = 0;
  double network_build_rss_mb_ = 0;
  std::int32_t setup_span_ = -1;
  std::int32_t run_span_ = -1;
  Clock::time_point run_t0_{};
};

void Harness::report(Outcome& out) const {
  out.setup_s = setup_s_;
  out.run_s = run_s_;
  out.peak_rss_mb = peak_rss_mb();
  const obs::Registry& reg = network_->obs().registry;
  const auto sum = [&reg](const char* name) {
    return static_cast<double>(reg.sum(name));
  };
  out.deliveries = reg.sum("express.host.data_received");
  const std::uint64_t sub_events = reg.sum("express.sub.subscribe_events") +
                                   reg.sum("express.sub.unsubscribe_events");
  const std::uint64_t transport_messages =
      reg.sum("ecmp.transport.queries_sent") +
      reg.sum("ecmp.transport.counts_sent") +
      reg.sum("ecmp.transport.responses_sent");
  out.wire = {
      {"net.packets_sent", reg.sum("net.packets_sent")},
      {"net.bytes_sent", reg.sum("net.bytes_sent")},
      {"express.host.data_received", out.deliveries},
      {"express.sub.events", sub_events},
      {"ecmp.transport.messages", transport_messages},
  };

  const double packets = sum("net.packets_sent");
  const double events = sum("sim.sched.executed");
  const double drops = sum("net.drop.link_down") + sum("net.drop.no_route") +
                       sum("net.drop.ttl");
  const double fwd_packets = sum("express.fwd.data_packets_forwarded");
  const double fwd_copies = sum("express.fwd.data_copies_sent");
  const double rounds = sum("express.counting.rounds_started");

  auto& m = out.layers;
  m.emplace_back("net.network_build_rss_mb", network_build_rss_mb_);
  m.emplace_back("sim.events", events);
  m.emplace_back("sim.ns_per_event", ratio(run_s_ * 1e9, events));
  m.emplace_back("sim.peak_pending", sum("sim.sched.peak_pending"));
  m.emplace_back("sim.cancelled", sum("sim.sched.cancelled"));
  m.emplace_back("net.packets_sent", packets);
  m.emplace_back("net.ns_per_packet", ratio(run_s_ * 1e9, packets));
  m.emplace_back("net.drops", drops);
  m.emplace_back("net.drop_ratio", ratio(drops, packets));
  m.emplace_back("express.fwd.packets", fwd_packets);
  m.emplace_back("express.fwd.copies", fwd_copies);
  m.emplace_back("express.fwd.copies_per_packet", ratio(fwd_copies, fwd_packets));
  m.emplace_back("express.fib.lookups", sum("express.fib.lookups"));
  m.emplace_back("express.fib.hit_ratio",
                 ratio(sum("express.fib.hits"), sum("express.fib.lookups")));
  m.emplace_back("express.sub.events", static_cast<double>(sub_events));
  m.emplace_back("express.sub.joins_sent", sum("express.sub.joins_sent"));
  m.emplace_back("express.sub.prunes_sent", sum("express.sub.prunes_sent"));
  m.emplace_back("ecmp.transport.messages",
                 static_cast<double>(transport_messages));
  m.emplace_back("ecmp.transport.control_bytes",
                 sum("ecmp.transport.control_bytes_sent"));
  m.emplace_back("express.counting.rounds_started", rounds);
  m.emplace_back("express.counting.completed_ratio",
                 ratio(sum("express.counting.rounds_completed"), rounds));
  m.emplace_back("express.host.unwanted_data", sum("express.host.unwanted_data"));
  m.emplace_back("express.host.delivery_efficiency",
                 ratio(static_cast<double>(out.deliveries), packets));
  m.emplace_back("audit.violations", static_cast<double>(audit_violations_));
  if (!tracer_.armed()) return;

  // Span-derived metrics: only an armed run has them.
  const auto seconds_of = [this](const char* name) {
    double total = 0;
    for (double d : tracer_.durations(name)) total += d;
    return total;
  };
  double topo = 0;
  for (const char* gen : {"make_kary_tree", "make_transit_stub"}) {
    topo += seconds_of(gen);
  }
  m.emplace_back("workload.topo_gen_s", topo);
  m.emplace_back("net.network_build_s", seconds_of("Network::Network"));
  m.emplace_back("testbed.attach_s", seconds_of("Network::attach"));

  const auto scaled = [this](std::initializer_list<const char*> names,
                             double scale) {
    std::vector<double> v;
    for (const char* name : names) {
      for (double d : tracer_.durations(name)) v.push_back(d * scale);
    }
    return v;
  };
  const auto link = scaled({"Network::set_link_up"}, 1e3);
  m.emplace_back("net.set_link_up_ms.p50", percentile(link, 50));
  m.emplace_back("net.set_link_up_ms.max", percentile(link, 100));
  m.emplace_back("net.set_link_up_ms.count", static_cast<double>(link.size()));
  const auto sub = scaled(
      {"ExpressHost::new_subscription", "ExpressHost::delete_subscription"}, 1e6);
  m.emplace_back("express.host.subscribe_us.p50", percentile(sub, 50));
  m.emplace_back("express.host.subscribe_us.p99", percentile(sub, 99));
  m.emplace_back("express.host.subscribe_us.count",
                 static_cast<double>(sub.size()));
  const auto send = scaled({"ExpressHost::send"}, 1e6);
  m.emplace_back("express.host.send_us.p50", percentile(send, 50));
  m.emplace_back("express.host.send_us.p99", percentile(send, 99));
  m.emplace_back("express.host.send_us.count", static_cast<double>(send.size()));
  const auto audits = scaled({"InvariantAuditor::run"}, 1e3);
  m.emplace_back("audit.run_ms.p50", percentile(audits, 50));
  m.emplace_back("audit.run_ms.count", static_cast<double>(audits.size()));

  // Self time per layer over both phases, and the share of each phase
  // that named layers (not the harness) account for.
  const auto setup_self = tracer_.self_seconds(setup_span_);
  const auto run_self = tracer_.self_seconds(run_span_);
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    m.emplace_back(std::string(layer_name(static_cast<Layer>(l))) + ".self_s",
                   setup_self[l] + run_self[l]);
  }
  const auto bench = static_cast<std::size_t>(Layer::kBench);
  const double setup_total = tracer_.seconds(setup_span_);
  const double run_total = tracer_.seconds(run_span_);
  m.emplace_back("bench.trace_setup_s", setup_total);
  m.emplace_back("bench.trace_run_s", run_total);
  m.emplace_back("bench.setup_coverage",
                 1.0 - ratio(setup_self[bench], setup_total));
  m.emplace_back("bench.run_coverage", 1.0 - ratio(run_self[bench], run_total));
  if (!trace_out_.empty() && !tracer_.write_jsonl(trace_out_)) {
    std::fprintf(stderr, "cannot write spans to %s\n", trace_out_.c_str());
  }
}

void note(Outcome& out, std::uint64_t failed, const std::string& what) {
  if (failed == 0) return;
  out.failed += failed;
  if (out.problems.size() < kMaxProblems) out.problems.push_back(what);
}

std::uint64_t gap(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

/// Receiver hosts of make_kary_tree(arity, depth, {}, hosts_per_leaf).
std::uint32_t tree_hosts(std::uint32_t arity, std::uint32_t depth,
                         std::uint32_t hosts_per_leaf) {
  std::uint32_t leaves = 1;
  for (std::uint32_t d = 0; d < depth; ++d) leaves *= arity;
  return leaves * hosts_per_leaf;
}

// ---------------------------------------------------------------------
// broadcast: Internet-TV shape, fixed membership, fan-out bound.
// ---------------------------------------------------------------------

struct BroadcastShape {
  std::uint32_t arity = 4;
  std::uint32_t depth = 4;
  std::uint32_t hosts_per_leaf = 10;
  std::uint32_t channels = 8;
  sim::Duration data_time = sim::seconds(40);
  sim::Duration send_period = sim::milliseconds(50);  ///< 20 pkt/s/channel
  sim::Duration query_period = sim::seconds(5);
  /// Fault injection for the self-test: receiver 0 goes silent when
  /// data starts, so its deliveries must show up as missing.
  bool silence_receiver = false;
};

void broadcast(const BroadcastShape& shape, const Options& options,
               Outcome& out) {
  const std::uint32_t hosts =
      tree_hosts(shape.arity, shape.depth, shape.hosts_per_leaf);

  // Inputs from the seed: host i joins channel c with probability
  // 1/(c+1), then membership stays fixed.
  sim::Rng rng(options.seed);
  std::vector<std::vector<std::uint32_t>> joined(hosts);
  std::vector<std::uint64_t> members(shape.channels, 0);
  std::vector<Command> commands;
  for (std::uint32_t h = 0; h < hosts; ++h) {
    for (std::uint32_t c = 0; c < shape.channels; ++c) {
      if (rng.uniform() * (c + 1) < 1.0) {
        joined[h].push_back(c);
        ++members[c];
        commands.push_back(
            {sim::microseconds(100) * h, Command::Kind::kJoin, h, c, 0});
      }
    }
  }
  const sim::Time data_start = sim::seconds(1);
  const sim::Time data_end = data_start + shape.data_time;
  std::vector<std::uint64_t> sent(shape.channels, 0);
  for (std::uint32_t c = 0; c < shape.channels; ++c) {
    // Stagger channels within a period so sends do not coincide.
    const sim::Duration offset = shape.send_period * c / shape.channels;
    for (sim::Time t = data_start + offset; t < data_end;
         t += shape.send_period) {
      commands.push_back({t, Command::Kind::kSend, 0, c, sent[c]++});
    }
    for (sim::Time t = data_start + shape.query_period + offset; t <= data_end;
         t += shape.query_period) {
      commands.push_back({t, Command::Kind::kQuery, 0, c, 0});
    }
  }

  Harness h(options);
  h.setup("make_kary_tree", [&] {
    return workload::make_kary_tree(shape.arity, shape.depth, {},
                                    shape.hosts_per_leaf);
  });
  h.begin_run(shape.channels, std::move(commands));
  h.run_to(data_start);
  if (shape.silence_receiver) h.receiver(0).set_silent(true);
  h.run_to(data_end + sim::seconds(3));  // drain data and count rounds
  h.end_run();

  // Every subscribed host gets every packet of its channels, no other
  // host gets any, and every count is complete and exact.
  std::uint64_t expected_total = 0;
  std::uint64_t unwanted = 0;
  for (std::uint32_t i = 0; i < hosts; ++i) {
    std::uint64_t expected = 0;
    for (std::uint32_t c : joined[i]) expected += sent[c];
    expected_total += expected;
    const HostStats s = h.receiver(i).stats();
    note(out, gap(s.data_received, expected),
         "receiver " + std::to_string(i) + " got " +
             std::to_string(s.data_received) + " of " +
             std::to_string(expected) + " packets");
    unwanted += s.unwanted_data;
  }
  note(out, unwanted, std::to_string(unwanted) + " unwanted deliveries");
  for (const auto& q : h.query_results()) {
    const bool exact = q.result.complete && q.result.count >= 0 &&
                       static_cast<std::uint64_t>(q.result.count) ==
                           members[q.channel];
    note(out, exact ? 0 : 1,
         "count on channel " + std::to_string(q.channel) + " gave " +
             std::to_string(q.result.count) + " of " +
             std::to_string(members[q.channel]));
  }
  note(out, h.queries_issued() - h.query_results().size(),
       "count queries without a result");
  out.attempted = expected_total + h.queries_issued();
  h.report(out);
}

// ---------------------------------------------------------------------
// membership-churn: same tree, Poisson join/leave on every channel.
// ---------------------------------------------------------------------

struct ChurnShape {
  std::uint32_t arity = 4;
  std::uint32_t depth = 4;
  std::uint32_t hosts_per_leaf = 10;
  std::uint32_t channels = 16;
  sim::Duration horizon = sim::seconds(60);
  sim::Duration mean_on = sim::seconds(4);
  sim::Duration mean_off = sim::seconds(4);
  sim::Duration send_period = sim::milliseconds(500);  ///< 2 pkt/s/channel
  /// Fault injection for the self-test: plant channel state on one
  /// router before the final audit, which must then report it.
  bool corrupt_router = false;
};

void membership_churn(const ChurnShape& shape, const Options& options,
                      Outcome& out) {
  const std::uint32_t hosts =
      tree_hosts(shape.arity, shape.depth, shape.hosts_per_leaf);

  sim::Rng rng(options.seed);
  std::vector<Command> commands;
  std::vector<Command> leaves;
  std::vector<std::vector<sim::Time>> send_times(shape.channels);
  std::uint64_t calls = 0;
  for (std::uint32_t c = 0; c < shape.channels; ++c) {
    for (const auto& ev : workload::poisson_churn(hosts, shape.horizon,
                                                  shape.mean_on, shape.mean_off,
                                                  rng)) {
      commands.push_back({ev.at,
                          ev.join ? Command::Kind::kJoin : Command::Kind::kLeave,
                          ev.host_index, c, 0});
      if (!ev.join) leaves.push_back(commands.back());
      ++calls;
    }
    const sim::Duration offset = shape.send_period * c / shape.channels;
    std::uint64_t seq = 0;
    for (sim::Time t = offset; t < shape.horizon; t += shape.send_period) {
      commands.push_back({t, Command::Kind::kSend, 0, c, seq++});
      send_times[c].push_back(t);
    }
  }

  Harness h(options);
  h.setup("make_kary_tree", [&] {
    return workload::make_kary_tree(shape.arity, shape.depth, {},
                                    shape.hosts_per_leaf);
  });
  h.begin_run(shape.channels, std::move(commands));
  h.run_to(shape.horizon + sim::seconds(2));  // every host has left
  h.end_run();

  if (shape.corrupt_router) {
    // Every host has left, so any channel state is an orphan.
    bool created = false;
    h.routers().front()->corrupt_subscriptions_for_test()
        .get_or_create(h.channels().front(), created)
        .advertised_upstream = 3;
  }
  const audit::AuditReport report = h.audit();
  note(out, report.violations.size(),
       report.clean() ? "" : "final audit: " + report.violations[0].detail);
  // A packet already past the first-hop router when a leave reaches it
  // still arrives, and the host counts it as unwanted. Each leave may
  // therefore see the sends of its channel from one source-to-host
  // latency before it until the leave reaches the router; unwanted
  // deliveries beyond that allowance are failures.
  const sim::Duration latency = workload::LinkParams{}.core_delay * shape.depth +
                                workload::LinkParams{}.edge_delay +
                                sim::milliseconds(1);  // serialization slack
  const sim::Duration to_router =
      workload::LinkParams{}.edge_delay + sim::milliseconds(1);
  std::uint64_t allowance = 0;
  for (const Command& leave : leaves) {
    const auto& times = send_times[leave.channel];
    allowance += static_cast<std::uint64_t>(
        std::lower_bound(times.begin(), times.end(), leave.at + to_router) -
        std::upper_bound(times.begin(), times.end(), leave.at - latency));
  }
  const std::uint64_t unwanted = h.unwanted_deliveries();
  if (unwanted > allowance) {
    note(out, unwanted - allowance,
         std::to_string(unwanted) + " unwanted deliveries, " +
             std::to_string(allowance) + " explained by packets in flight");
  }
  out.attempted = calls;
  h.report(out);
}

// ---------------------------------------------------------------------
// link-flap: meshed transit-stub core, core links fail and heal.
// ---------------------------------------------------------------------

struct LinkFlapShape {
  std::uint32_t transit = 32;
  std::uint32_t stubs_per_transit = 8;
  std::uint32_t hosts_per_stub = 8;
  std::uint32_t flaps = 3;
  sim::Duration hold = sim::seconds(1);
  sim::Duration settle = sim::seconds(3);
  sim::Duration probe = sim::seconds(1);
  /// Sends pause this long before each checkpoint so no data is in
  /// flight when the audit and the delivery snapshot are taken.
  sim::Duration quiet = sim::milliseconds(100);
  sim::Duration send_period = sim::milliseconds(10);  ///< 100 pkt/s
};

void link_flap(const LinkFlapShape& shape, const Options& options,
               Outcome& out) {
  sim::Rng rng(options.seed);
  Harness h(options);
  h.setup("make_transit_stub", [&] {
    return workload::make_transit_stub(shape.transit, shape.stubs_per_transit,
                                       shape.hosts_per_stub, rng);
  });

  // Inputs: the links to flap (transit-core links, which all have an
  // alternate path around the ring), the members, and the data stream.
  const net::Topology& topo = h.topology();
  const std::vector<net::NodeId> core(
      h.roles().routers.begin(), h.roles().routers.begin() + shape.transit);
  const auto in_core = [&core](net::NodeId n) {
    return std::find(core.begin(), core.end(), n) != core.end();
  };
  std::vector<net::LinkId> core_links;
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    if (in_core(topo.link(l).a) && in_core(topo.link(l).b)) {
      core_links.push_back(l);
    }
  }
  std::vector<net::LinkId> flapped;
  for (std::uint32_t f = 0; f < shape.flaps; ++f) {
    const auto pick = rng.below(static_cast<std::uint32_t>(core_links.size()));
    flapped.push_back(core_links[pick]);
    core_links.erase(core_links.begin() + pick);
  }
  std::vector<Command> commands;
  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < h.receiver_count(); i += 2) {
    members.push_back(i);
    commands.push_back({sim::microseconds(100) * i, Command::Kind::kJoin, i, 0, 0});
  }
  // Data flows throughout, pausing `quiet` before each checkpoint (the
  // first fault, each audit, each probe window's end). Each cycle is
  // hold, settle, audit, then a probe window whose sends every member
  // must receive exactly once.
  std::uint64_t seq = 0;
  const auto stream = [&](sim::Time from, sim::Time to) {
    std::uint64_t n = 0;
    for (sim::Time t = from; t < to - shape.quiet; t += shape.send_period, ++n) {
      commands.push_back({t, Command::Kind::kSend, 0, 0, seq++});
    }
    return n;
  };
  const sim::Time first_fault = sim::seconds(2);
  const sim::Duration cycle = shape.hold + shape.settle + shape.probe;
  const auto audit_at = [&](std::uint32_t f) {
    return first_fault + cycle * f + shape.hold + shape.settle;
  };
  stream(sim::seconds(1), first_fault);
  std::vector<std::uint64_t> probe_sends;
  for (std::uint32_t f = 0; f < shape.flaps; ++f) {
    stream(first_fault + cycle * f, audit_at(f));
    probe_sends.push_back(stream(audit_at(f), audit_at(f) + shape.probe));
  }

  h.begin_run(1, std::move(commands));
  h.run_to(first_fault);
  std::vector<std::uint64_t> before(members.size());
  for (std::uint32_t f = 0; f < shape.flaps; ++f) {
    h.set_link_up(flapped[f], false);
    h.run_to(first_fault + cycle * f + shape.hold);
    h.set_link_up(flapped[f], true);
    h.run_to(audit_at(f));
    const audit::AuditReport report = h.audit();
    if (!report.clean()) {
      note(out, 1, "fault " + std::to_string(f) +
                       " audit: " + report.violations[0].detail);
    }
    for (std::size_t m = 0; m < members.size(); ++m) {
      before[m] = h.receiver(members[m]).stats().data_received;
    }
    h.run_to(audit_at(f) + shape.probe);
    for (std::size_t m = 0; m < members.size(); ++m) {
      const std::uint64_t got =
          h.receiver(members[m]).stats().data_received - before[m];
      if (got != probe_sends[f]) {
        note(out, gap(got, probe_sends[f]),
             "fault " + std::to_string(f) + ": receiver " +
                 std::to_string(members[m]) + " got " + std::to_string(got) +
                 " of " + std::to_string(probe_sends[f]) + " probes");
      }
    }
  }
  h.end_run();

  const std::uint64_t unwanted = h.unwanted_deliveries();
  note(out, unwanted, std::to_string(unwanted) + " unwanted deliveries");
  out.attempted = shape.flaps;
  for (std::uint64_t n : probe_sends) out.attempted += members.size() * n;
  h.report(out);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"broadcast",
                                                 "membership-churn", "link-flap"};
  return names;
}

bool run_workload(const std::string& name, const Options& options,
                  Outcome& out) {
  if (name == "broadcast") {
    broadcast(BroadcastShape{}, options, out);
  } else if (name == "membership-churn") {
    membership_churn(ChurnShape{}, options, out);
  } else if (name == "link-flap") {
    link_flap(LinkFlapShape{}, options, out);
  } else {
    return false;
  }
  return true;
}

bool self_test() {
  struct Case {
    const char* name;
    bool fault;
    Outcome out;
  };
  const Options options{};
  BroadcastShape tiny_broadcast{.arity = 2, .depth = 2, .hosts_per_leaf = 2,
                                .channels = 2, .data_time = sim::seconds(2)};
  ChurnShape tiny_churn{.arity = 2, .depth = 2, .hosts_per_leaf = 2,
                        .channels = 2, .horizon = sim::seconds(5)};
  std::vector<Case> cases(4);
  cases[0].name = "broadcast";
  broadcast(tiny_broadcast, options, cases[0].out);
  tiny_broadcast.silence_receiver = true;
  cases[1] = {"broadcast+silent-receiver", true, {}};
  broadcast(tiny_broadcast, options, cases[1].out);
  cases[2].name = "membership-churn";
  membership_churn(tiny_churn, options, cases[2].out);
  tiny_churn.corrupt_router = true;
  cases[3] = {"membership-churn+corrupt-router", true, {}};
  membership_churn(tiny_churn, options, cases[3].out);

  bool ok = true;
  for (const Case& c : cases) {
    const bool pass = c.fault ? c.out.failed > 0 : c.out.failed == 0;
    ok = ok && pass && c.out.attempted > 0;
    std::printf("selftest %-34s attempted %-6llu failed %-6llu %s\n", c.name,
                static_cast<unsigned long long>(c.out.attempted),
                static_cast<unsigned long long>(c.out.failed),
                pass ? "ok" : "WRONG");
    for (const std::string& p : c.out.problems) {
      std::printf("    %s\n", p.c_str());
    }
  }
  return ok;
}

}  // namespace perfbench
