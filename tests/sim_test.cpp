// Tests for the SDN simulator substrate: event queue, flow tables,
// switches with time-resolved tables, network construction, the fluid
// traffic tracer and the controller (latencies, timed mods, barriers).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "net/generators.hpp"
#include "net/topologies.hpp"
#include "sim/controller.hpp"
#include "sim/event_queue.hpp"
#include "sim/flow_table.hpp"
#include "sim/network.hpp"
#include "sim/switch.hpp"
#include "sim/traffic.hpp"

namespace chronus::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(20, [&] { order.push_back(2); });
  eq.schedule_at(10, [&] { order.push_back(1); });
  eq.schedule_at(30, [&] { order.push_back(3); });
  EXPECT_EQ(eq.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 30);
}

TEST(EventQueue, StableForEqualTimes) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) eq.schedule_at(7, [&, i] { order.push_back(i); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilStopsAndAdvancesClock) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(10, [&] { ++fired; });
  eq.schedule_at(20, [&] { ++fired; });
  EXPECT_EQ(eq.run(15), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eq.now(), 15);
  eq.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue eq;
  int count = 0;
  eq.schedule_at(1, [&] {
    ++count;
    eq.schedule_in(5, [&] { ++count; });
  });
  eq.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(eq.now(), 6);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue eq;
  eq.schedule_at(10, [] {});
  eq.run();
  EXPECT_THROW(eq.schedule_at(5, [] {}), std::invalid_argument);
}

TEST(FlowTableT, PriorityWins) {
  FlowTable t;
  FlowEntry low;
  low.priority = 1;
  low.match.dst_prefix = "10.";
  low.action = Action::output(1);
  FlowEntry high;
  high.priority = 9;
  high.match.dst_prefix = "10.0.";
  high.action = Action::output(2);
  t.add(low);
  t.add(high);
  PacketHeader pkt;
  pkt.dst = "10.0.0.5";
  ASSERT_NE(t.lookup(pkt), nullptr);
  EXPECT_EQ(t.lookup(pkt)->action.out_port, 2u);
  pkt.dst = "10.1.0.5";
  EXPECT_EQ(t.lookup(pkt)->action.out_port, 1u);
}

TEST(FlowTableT, WildcardsMatchEverything) {
  FlowTable t;
  FlowEntry e;
  e.action = Action::output(3);
  t.add(e);
  PacketHeader pkt;
  pkt.dst = "anything";
  pkt.vlan = 7;
  pkt.in_port = 4;
  ASSERT_NE(t.lookup(pkt), nullptr);
}

TEST(FlowTableT, VlanAndInPortMatching) {
  FlowTable t;
  FlowEntry e;
  e.match.vlan = 2;
  e.match.in_port = 1;
  e.action = Action::output(5);
  t.add(e);
  PacketHeader pkt;
  pkt.vlan = 2;
  pkt.in_port = 1;
  EXPECT_NE(t.lookup(pkt), nullptr);
  pkt.vlan = 1;
  EXPECT_EQ(t.lookup(pkt), nullptr);
  pkt.vlan = 2;
  pkt.in_port = 2;
  EXPECT_EQ(t.lookup(pkt), nullptr);
}

TEST(FlowTableT, AddReplacesSameMatchAndPriority) {
  FlowTable t;
  FlowEntry e;
  e.match.dst_prefix = "10.";
  e.action = Action::output(1);
  t.add(e);
  e.action = Action::output(2);
  EXPECT_TRUE(t.add(e));
  EXPECT_EQ(t.size(), 1u);
  PacketHeader pkt;
  pkt.dst = "10.1";
  EXPECT_EQ(t.lookup(pkt)->action.out_port, 2u);
}

TEST(FlowTableT, ModifyAndRemoveStrict) {
  FlowTable t;
  FlowEntry e;
  e.priority = 5;
  e.match.dst_prefix = "10.";
  e.action = Action::output(1);
  t.add(e);
  EXPECT_EQ(t.modify(e.match, 5, Action::output(9)), 1u);
  EXPECT_EQ(t.modify(e.match, 6, Action::output(9)), 0u);  // wrong priority
  PacketHeader pkt;
  pkt.dst = "10.2";
  EXPECT_EQ(t.lookup(pkt)->action.out_port, 9u);
  EXPECT_EQ(t.remove(e.match, 5), 1u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(FlowTableT, EntryToString) {
  FlowEntry e;
  e.priority = 10;
  e.match.dst_prefix = "10.0.2.";
  e.action = Action::output(kHostPort);
  const std::string s = e.to_string();
  EXPECT_NE(s.find("dst=10.0.2."), std::string::npos);
  EXPECT_NE(s.find("output:host"), std::string::npos);
}

TEST(SimSwitchT, TableAtReconstructsHistory) {
  SimSwitch sw(0);
  FlowMod add;
  add.type = FlowModType::kAdd;
  add.entry.match.dst_prefix = "10.";
  add.entry.action = Action::output(1);
  sw.apply(100, add);
  FlowMod mod = add;
  mod.type = FlowModType::kModifyStrict;
  mod.entry.action = Action::output(2);
  sw.apply(200, mod);

  PacketHeader pkt;
  pkt.dst = "10.5";
  EXPECT_EQ(sw.table_at(50).lookup(pkt), nullptr);
  EXPECT_EQ(sw.table_at(100).lookup(pkt)->action.out_port, 1u);
  EXPECT_EQ(sw.table_at(199).lookup(pkt)->action.out_port, 1u);
  EXPECT_EQ(sw.table_at(200).lookup(pkt)->action.out_port, 2u);
  EXPECT_EQ(sw.mods_applied(), 2u);
}

TEST(SimSwitchT, RejectsOutOfOrderMods) {
  SimSwitch sw(0);
  FlowMod m;
  m.entry.action = Action::output(1);
  sw.apply(10, m);
  EXPECT_THROW(sw.apply(5, m), std::logic_error);
}

TEST(SimSwitchT, PeakTableSize) {
  SimSwitch sw(0);
  FlowMod a;
  a.entry.priority = 1;
  a.entry.action = Action::output(1);
  FlowMod b;
  b.entry.priority = 2;
  b.entry.action = Action::output(1);
  sw.apply(1, a);
  sw.apply(2, b);
  FlowMod del = b;
  del.type = FlowModType::kDeleteStrict;
  sw.apply(3, del);
  EXPECT_EQ(sw.table().size(), 1u);
  EXPECT_EQ(sw.peak_table_size(), 2u);
  const auto hist = sw.size_history();
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[1].second, 2u);
}

TEST(NetworkT, MirrorsGraph) {
  const auto g = net::line_topology(4, net::Capacity{100.0}, 5);
  Network net(g, kMillisecond, 1e6);
  EXPECT_EQ(net.switch_count(), 4u);
  EXPECT_EQ(net.link_count(), 3u);
  const SimLink& l = net.link(*net.link_between(0, 1));
  EXPECT_EQ(l.delay, 5 * kMillisecond);
  EXPECT_DOUBLE_EQ(l.capacity_bps, 100e6);
  EXPECT_EQ(net.link_on_port(0, l.src_port), net.link_between(0, 1));
  EXPECT_EQ(net.port_towards(0, 1), l.src_port);
  EXPECT_THROW(net.port_towards(1, 0), std::invalid_argument);
}

// Port k on switch u is u's k-th outgoing link, and u's ingress ports
// continue after its egress ports, link by link.
void expect_port_numbering(const net::Graph& g) {
  const Network net(g, kMillisecond, 1e6);
  std::vector<std::vector<PortId>> ingress(g.node_count());
  for (net::LinkId id = 0; id < g.link_count(); ++id) {
    const SimLink& l = net.link(id);
    EXPECT_EQ(net.link_on_port(l.src, l.src_port), id);
    EXPECT_EQ(net.port_towards(l.src, l.dst), l.src_port);
    ingress[l.dst].push_back(l.dst_port);
  }
  for (SwitchId u = 0; u < g.node_count(); ++u) {
    const auto egress = static_cast<PortId>(g.out_links(u).size());
    std::vector<PortId> want(g.in_links(u).size());
    std::iota(want.begin(), want.end(), egress);
    std::sort(ingress[u].begin(), ingress[u].end());
    EXPECT_EQ(ingress[u], want) << "switch " << u;
    EXPECT_EQ(net.link_on_port(u, egress), std::nullopt) << "switch " << u;
  }
  const auto bad = static_cast<SwitchId>(g.node_count());
  EXPECT_EQ(net.link_on_port(bad, 0), std::nullopt);
}

TEST(NetworkT, PortsFollowOutgoingLinkOrder) {
  expect_port_numbering(net::fat_tree(8, net::Capacity{4.0}).graph);
  // The final path's links are added after the line's, so a switch's
  // outgoing link ids are not consecutive.
  util::Rng rng(7);
  expect_port_numbering(
      net::random_instance({.n = 40, .detour_frac = 0.8}, rng).graph());
}

TEST(TrafficT, SteadyFlowLoadsPath) {
  const auto g = net::line_topology(3, net::Capacity{100.0}, 1);
  Network net(g, kMillisecond, 1e6);
  // Install dst-based forwarding on switches 0 and 1, delivery at 2.
  for (SwitchId s = 0; s < 2; ++s) {
    FlowMod m;
    m.entry.match.dst_prefix = "10.0.2.";
    m.entry.action = Action::output(net.port_towards(s, s + 1));
    net.sw(s).apply(0, m);
  }
  FlowMod del;
  del.entry.match.dst_prefix = "10.0.2.";
  del.entry.action = Action::output(kHostPort);
  net.sw(2).apply(0, del);

  TrafficFlow flow;
  flow.name = "f";
  flow.header.dst = "10.0.2.1";
  flow.header.in_port = kHostPort;
  flow.ingress = 0;
  flow.rate_bps = 50e6;

  TraceOptions opts;
  opts.t_begin = 0;
  opts.t_end = 100 * kMillisecond;
  const TrafficReport rep = trace_traffic(net, {flow}, opts);
  EXPECT_TRUE(rep.clean());
  const auto series = bandwidth_series(rep, *net.link_between(0, 1),
                                       10 * kMillisecond, 90 * kMillisecond,
                                       10 * kMillisecond);
  ASSERT_FALSE(series.empty());
  for (const double v : series) EXPECT_NEAR(v, 50e6, 1.0);
}

TEST(TrafficT, DetectsDropWithoutRules) {
  const auto g = net::line_topology(2, net::Capacity{100.0}, 1);
  Network net(g, kMillisecond, 1e6);
  TrafficFlow flow;
  flow.name = "f";
  flow.header.dst = "10.0.1.1";
  flow.ingress = 0;
  flow.rate_bps = 1e6;
  TraceOptions opts;
  opts.t_end = 10 * kMillisecond;
  const TrafficReport rep = trace_traffic(net, {flow}, opts);
  ASSERT_EQ(rep.drops.size(), 1u);
  EXPECT_EQ(rep.drops[0].at, 0u);
}

TEST(TrafficT, DetectsOverCapacity) {
  const auto g = net::line_topology(2, net::Capacity{10.0}, 1);  // 10 Mbps link
  Network net(g, kMillisecond, 1e6);
  FlowMod m;
  m.entry.match.dst_prefix = "10.";
  m.entry.action = Action::output(net.port_towards(0, 1));
  net.sw(0).apply(0, m);
  FlowMod d;
  d.entry.match.dst_prefix = "10.";
  d.entry.action = Action::output(kHostPort);
  net.sw(1).apply(0, d);

  TrafficFlow a;
  a.header.dst = "10.1";
  a.ingress = 0;
  a.rate_bps = 8e6;
  TrafficFlow b = a;
  b.name = "b";
  TraceOptions opts;
  opts.t_end = 20 * kMillisecond;
  const TrafficReport rep = trace_traffic(net, {a, b}, opts);
  ASSERT_FALSE(rep.congestion.empty());
  EXPECT_NEAR(rep.congestion[0].peak_bps, 16e6, 1.0);
}

TEST(TrafficT, DetectsForwardingLoop) {
  net::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1, net::Capacity{100.0}, 1);
  g.add_link(1, 0, net::Capacity{100.0}, 1);
  Network net(g, kMillisecond, 1e6);
  FlowMod m0;
  m0.entry.match.dst_prefix = "10.";
  m0.entry.action = Action::output(net.port_towards(0, 1));
  net.sw(0).apply(0, m0);
  FlowMod m1;
  m1.entry.match.dst_prefix = "10.";
  m1.entry.action = Action::output(net.port_towards(1, 0));
  net.sw(1).apply(0, m1);

  TrafficFlow flow;
  flow.header.dst = "10.1";
  flow.ingress = 0;
  flow.rate_bps = 1e6;
  TraceOptions opts;
  opts.t_end = 10 * kMillisecond;
  const TrafficReport rep = trace_traffic(net, {flow}, opts);
  EXPECT_FALSE(rep.loops.empty());
}

TEST(TrafficT, VlanStampingIsApplied) {
  const auto g = net::line_topology(3, net::Capacity{100.0}, 1);
  Network net(g, kMillisecond, 1e6);
  // Ingress stamps vlan 2; transit matches vlan 2 only.
  FlowMod stamp;
  stamp.entry.priority = 20;
  stamp.entry.match.dst_prefix = "10.";
  stamp.entry.match.in_port = kHostPort;
  stamp.entry.action = Action::set_vlan_output(2, net.port_towards(0, 1));
  net.sw(0).apply(0, stamp);
  FlowMod transit;
  transit.entry.match.dst_prefix = "10.";
  transit.entry.match.vlan = 2;
  transit.entry.action = Action::output(net.port_towards(1, 2));
  net.sw(1).apply(0, transit);
  FlowMod deliver;
  deliver.entry.match.dst_prefix = "10.";
  deliver.entry.match.vlan = 2;
  deliver.entry.action = Action::output(kHostPort);
  net.sw(2).apply(0, deliver);

  TrafficFlow flow;
  flow.header.dst = "10.9";
  flow.header.in_port = kHostPort;
  flow.ingress = 0;
  flow.rate_bps = 1e6;
  TraceOptions opts;
  opts.t_end = 10 * kMillisecond;
  const TrafficReport rep = trace_traffic(net, {flow}, opts);
  EXPECT_TRUE(rep.clean());
  EXPECT_GT(rep.offered_bps[*net.link_between(1, 2)].at(5 * kMillisecond),
            0.0);
}

TEST(ControllerT, InstallNowIsImmediate) {
  const auto g = net::line_topology(2, net::Capacity{100.0}, 1);
  Network net(g, kMillisecond, 1e6);
  EventQueue eq;
  util::Rng rng(1);
  Controller ctrl(eq, net, rng);
  FlowEntry e;
  e.match.dst_prefix = "10.";
  e.action = Action::output(0);
  ctrl.install_now(0, e);
  ctrl.flush();
  EXPECT_EQ(net.sw(0).table().size(), 1u);
}

TEST(ControllerT, FlowModLatencyIsPositiveAndFifo) {
  const auto g = net::line_topology(2, net::Capacity{100.0}, 1);
  Network net(g, kMillisecond, 1e6);
  EventQueue eq;
  util::Rng rng(2);
  Controller ctrl(eq, net, rng);
  FlowMod m;
  m.entry.action = Action::output(0);
  SimTime prev = 0;
  for (int i = 0; i < 20; ++i) {
    m.entry.priority = i;  // distinct entries
    const SimTime at = ctrl.send_flow_mod(0, m);
    EXPECT_GT(at, 0);
    EXPECT_GE(at, prev);  // per-switch FIFO
    prev = at;
  }
  ctrl.flush();
  EXPECT_EQ(net.sw(0).mods_applied(), 20u);
}

TEST(ControllerT, TimedModsFireNearSchedule) {
  const auto g = net::line_topology(2, net::Capacity{100.0}, 1);
  Network net(g, kMillisecond, 1e6);
  EventQueue eq;
  util::Rng rng(3);
  ControlChannelModel model;
  model.sync_error_stddev = 5;  // 5 us clock error
  Controller ctrl(eq, net, rng, model);
  FlowMod m;
  m.entry.action = Action::output(0);
  const SimTime target = 2 * kSecond;
  const SimTime applied = ctrl.send_timed_flow_mod(0, m, target);
  EXPECT_NEAR(static_cast<double>(applied), static_cast<double>(target), 50.0);
  ctrl.flush();
}

TEST(ControllerT, LateTimedModExecutesOnArrival) {
  const auto g = net::line_topology(2, net::Capacity{100.0}, 1);
  Network net(g, kMillisecond, 1e6);
  EventQueue eq;
  util::Rng rng(4);
  Controller ctrl(eq, net, rng);
  FlowMod m;
  m.entry.action = Action::output(0);
  // Scheduled in the past: applied when it reaches the switch.
  const SimTime applied = ctrl.send_timed_flow_mod(0, m, 0);
  EXPECT_GT(applied, 0);
}

TEST(ControllerT, BarrierWaitsForPendingMods) {
  const auto g = net::line_topology(2, net::Capacity{100.0}, 1);
  Network net(g, kMillisecond, 1e6);
  EventQueue eq;
  util::Rng rng(5);
  Controller ctrl(eq, net, rng);
  FlowMod m;
  m.entry.action = Action::output(0);
  const SimTime applied = ctrl.send_timed_flow_mod(0, m, 5 * kSecond);
  const SimTime reply = ctrl.barrier(0);
  EXPECT_GT(reply, applied);
}

TEST(ControllerT, AdvanceClockIsMonotone) {
  const auto g = net::line_topology(2, net::Capacity{100.0}, 1);
  Network net(g, kMillisecond, 1e6);
  EventQueue eq;
  util::Rng rng(6);
  Controller ctrl(eq, net, rng);
  ctrl.advance_clock(100);
  ctrl.advance_clock(50);
  EXPECT_EQ(ctrl.clock(), 100);
}

}  // namespace
}  // namespace chronus::sim
