// Ablation: ECMP TCP mode vs UDP mode (§3.2).
//
// TCP mode needs one message to subscribe and one to leave, plus a
// per-neighbor keepalive — per-channel cost is O(1) over a channel's
// life. UDP mode refreshes every channel every query interval — cost
// grows with channels x time. The paper's placement rule ("TCP for core
// routers with few neighbors and many channels, UDP for edge routers")
// falls straight out of the measurement.
#include "common.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace express;

struct ModeRun {
  std::uint64_t control_bytes = 0;
  std::uint64_t control_packets = 0;
  bool survived = true;
};

ModeRun run(std::uint32_t channels, bool udp_edge, sim::Duration horizon) {
  RouterConfig config;
  config.transport.udp_query_interval = sim::seconds(30);
  Testbed bed(workload::make_star(4, 1), config);
  if (udp_edge) {
    // Edge routers' host-facing interface (index 1 on star arms).
    for (std::size_t r = 1; r < bed.router_count(); ++r) {
      bed.router(r).set_interface_mode(1, ecmp::Mode::kUdp);
    }
  }
  std::vector<ip::ChannelId> chs;
  for (std::uint32_t c = 0; c < channels; ++c) {
    chs.push_back(bed.source().allocate_channel());
  }
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    for (const auto& ch : chs) bed.receiver(i).new_subscription(ch);
  }
  const std::uint64_t packets0 = bed.net().stats().packets_sent;
  bed.run_for(horizon);

  ModeRun out;
  out.control_bytes = bed.total_control_bytes();
  out.control_packets = bed.net().stats().packets_sent - packets0;
  for (std::size_t i = 0; i < bed.router_count() && out.survived; ++i) {
    out.survived = bed.router(i).channel_count() > 0 ||
                   !bed.router(i).fib().entries().empty() ||
                   i == 0;  // root may legitimately aggregate
  }
  return out;
}

}  // namespace

int main() {
  using namespace express::bench;

  banner("ABL-modes / §3.2", "TCP vs UDP transport for ECMP state");
  const sim::Duration horizon = sim::seconds(600);  // 10-minute channels
  Table table({"channels", "mode", "control packets", "control bytes",
               "bytes/channel"});
  for (std::uint32_t channels : {4u, 16u, 64u}) {
    for (bool udp : {false, true}) {
      const ModeRun r = run(channels, udp, horizon);
      table.row({fmt_int(channels), udp ? "UDP edge" : "TCP",
                 fmt_int(r.control_packets), fmt_int(r.control_bytes),
                 fmt(static_cast<double>(r.control_bytes) / channels, 0)});
    }
  }
  table.print();
  note("TCP-mode per-channel cost is flat over the channel lifetime (one");
  note("join, no refreshes); UDP-mode cost grows with channels x refresh");
  note("rate — hence the paper's core-TCP / edge-UDP split.");
  return 0;
}
