// F3 (Fig. 3): subscription propagation.
//
// A join (non-zero subscriberId Count) travels hop-by-hop along the RPF
// path toward the source until it reaches a router already on the
// distribution tree. We subscribe hosts one at a time on a binary tree
// and report how far each join travelled and how long the subscription
// took to become live (join latency to first delivered packet).
#include <vector>

#include "common.hpp"
#include "testbed/testbed.hpp"

int main() {
  using namespace express;
  using namespace express::bench;

  banner("F3 / Fig. 3", "a host subscribing to an EXPRESS channel");
  Testbed bed(workload::make_kary_tree(2, 4));  // 16 receivers, depth 4
  const ip::ChannelId ch = bed.source().allocate_channel();

  auto total_counts = [&bed]() {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < bed.router_count(); ++i) {
      n += bed.router(i).stats().counts_received;
    }
    return n;
  };

  Table table({"join order", "receiver", "join hops travelled",
               "on-tree routers after", "delivery delay (ms)"});
  // Subscribe in an order that exercises splicing: receiver 0, its
  // sibling 1, a cousin 2, then the far side of the tree.
  const std::size_t order[] = {0, 1, 2, 8, 9, 15};
  std::vector<sim::Time> last_arrival(bed.receiver_count());
  for (std::size_t i = 0; i < bed.receiver_count(); ++i) {
    bed.receiver(i).set_data_handler(
        [&last_arrival, i](const net::Packet&, sim::Time at) {
          last_arrival[i] = at;
        });
  }
  std::size_t join_number = 0;
  for (std::size_t idx : order) {
    ++join_number;
    const std::uint64_t before = total_counts();
    bed.receiver(idx).new_subscription(ch);
    bed.run_for(sim::seconds(1));
    const std::uint64_t hops = total_counts() - before;

    std::size_t on_tree = 0;
    for (std::size_t i = 0; i < bed.router_count(); ++i) {
      if (bed.router(i).on_tree(ch)) ++on_tree;
    }

    // Join latency: time until a packet sent now reaches this receiver.
    const std::uint64_t delivered_before =
        bed.receiver(idx).stats().data_received;
    const sim::Time sent = bed.net().now();
    bed.source().send(ch, 100, idx);
    bed.run_for(sim::seconds(1));
    const bool delivered =
        bed.receiver(idx).stats().data_received > delivered_before;
    const double latency_ms =
        delivered ? sim::to_seconds(last_arrival[idx] - sent) * 1e3 : -1;
    table.row({fmt_int(join_number), "recv" + std::to_string(idx),
               fmt_int(hops), fmt_int(on_tree), fmt(latency_ms, 1)});
  }
  table.print();
  note("the first join builds the whole branch; later joins splice at the");
  note("nearest on-tree router (fewer hops), exactly Fig. 3's picture.");
  return 0;
}
