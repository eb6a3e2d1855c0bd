// F1 (Fig. 1): channel vs group addressing semantics.
//
// Two sources transmit to the same destination address E. Under the
// EXPRESS channel model a subscriber of (S1, E) hears only S1; under
// the group model (DVMRP baseline) a member of E hears both — plus
// anything an unauthorized third sender injects.
#include <memory>

#include "baseline/dvmrp.hpp"
#include "baseline/group_host.hpp"
#include "common.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace express;

struct GroupRun {
  std::uint64_t from_s1 = 0;
  std::uint64_t from_s2 = 0;
  std::uint64_t from_attacker = 0;
};

GroupRun run_group_model() {
  auto generated = workload::make_star(3, 1);
  auto roles = generated;  // ids survive the move below
  auto network =
      std::make_unique<net::Network>(std::move(generated.topology));
  std::vector<baseline::DvmrpRouter*> routers;
  for (net::NodeId r : roles.routers) {
    routers.push_back(&network->attach<baseline::DvmrpRouter>(r));
  }
  auto& s1 = network->attach<baseline::GroupHost>(roles.source_host);
  auto& member = network->attach<baseline::GroupHost>(roles.receiver_hosts[0]);
  auto& s2 = network->attach<baseline::GroupHost>(roles.receiver_hosts[1]);
  auto& attacker =
      network->attach<baseline::GroupHost>(roles.receiver_hosts[2]);

  GroupRun out;
  member.set_data_handler([&](const net::Packet& packet, sim::Time) {
    if (packet.src == s1.address()) ++out.from_s1;
    if (packet.src == s2.address()) ++out.from_s2;
    if (packet.src == attacker.address()) ++out.from_attacker;
  });

  const ip::Address group(225, 0, 0, 1);
  member.join_group(group);
  network->run_until(sim::seconds(1));
  for (int i = 0; i < 10; ++i) s1.send_to_group(group, 100, 1);
  for (int i = 0; i < 10; ++i) s2.send_to_group(group, 100, 2);
  for (int i = 0; i < 10; ++i) attacker.send_to_group(group, 100, 3);
  network->run_until(sim::seconds(2));
  return out;
}

GroupRun run_channel_model() {
  Testbed bed(workload::make_star(3, 1));
  auto& s1 = bed.source();
  auto& member = bed.receiver(0);
  auto& s2 = bed.receiver(1);
  auto& attacker = bed.receiver(2);

  // Both sources pick the *same* E — unrelated channels under EXPRESS.
  const ip::Address e = ip::Address::single_source(7);
  const ip::ChannelId ch1{s1.address(), e};
  const ip::ChannelId ch2{s2.address(), e};
  GroupRun out;
  member.set_data_handler([&](const net::Packet& packet, sim::Time) {
    if (packet.src == s1.address()) ++out.from_s1;
    if (packet.src == s2.address()) ++out.from_s2;
    if (packet.src == attacker.address()) ++out.from_attacker;
  });
  member.new_subscription(ch1);
  bed.run_for(sim::seconds(1));
  for (int i = 0; i < 10; ++i) s1.send(ch1, 100, 1);
  for (int i = 0; i < 10; ++i) s2.send(ch2, 100, 2);
  for (int i = 0; i < 10; ++i) {
    attacker.send(ip::ChannelId{attacker.address(), e}, 100, 3);
  }
  bed.run_for(sim::seconds(1));
  return out;
}

}  // namespace

int main() {
  using namespace express::bench;
  banner("F1 / Fig. 1", "channel vs group addressing");
  note("one receiver; S1 is the wanted source; S2 and an attacker also send");
  note("to the same destination address E (10 packets each).");

  const GroupRun group = run_group_model();
  const GroupRun channel = run_channel_model();

  Table table({"model", "recv from S1", "recv from S2", "recv from attacker"});
  table.row({"group (DVMRP)", fmt_int(group.from_s1), fmt_int(group.from_s2),
             fmt_int(group.from_attacker)});
  table.row({"channel (EXPRESS)", fmt_int(channel.from_s1),
             fmt_int(channel.from_s2), fmt_int(channel.from_attacker)});
  table.print();
  note("paper: a channel (S,E) is unrelated to (S',E); only the designated");
  note("source reaches subscribers — the group model delivers every sender.");
  return 0;
}
