// Network maintenance: drain a router without ever dropping or congesting
// the traffic riding it (the paper's motivation (3)). A line of eight
// switches carries a 500 Mbps aggregate; switch m4 must be taken down, so
// the flow is moved onto a bypass around it. The whole transition is
// executed through the simulated control plane with Time4 timed FlowMods,
// and per-second bandwidth samples (Floodlight-statistics style) show the
// traffic shifting without exceeding any link capacity.
//
//   ./examples/maintenance_failover
#include <cstdio>

#include "core/greedy_scheduler.hpp"
#include "net/generators.hpp"
#include "sim/traffic.hpp"
#include "sim/updaters.hpp"
#include "timenet/verifier.hpp"

using namespace chronus;

int main() {
  // m1 .. m8 in a line; bypass m3 -> m6 avoids the routers under
  // maintenance (m4, m5). All links 500 Mbps, the flow fills them.
  net::Graph g = net::line_topology(8, net::Capacity{1.0}, 1);
  const net::NodeId m3 = 2, m6 = 5;
  // The bypass haul takes as long as the drained segment: were it faster,
  // rerouted traffic would overtake the in-flight drain on the shared tail
  // and no congestion-free schedule could exist (the scheduler refuses
  // exactly that if you set the delay to 2).
  g.add_link(m3, m6, net::Capacity{1.0}, 3);
  const auto inst = net::UpdateInstance::from_paths(
      g, net::Path{0, 1, 2, 3, 4, 5, 6, 7}, net::Path{0, 1, 2, 5, 6, 7}, net::Demand{1.0});

  const core::ScheduleResult plan = core::greedy_schedule(inst);
  std::printf("Drain plan for m4/m5: %s\n",
              plan.feasible() ? "feasible" : plan.message.c_str());
  if (!plan.feasible()) return 1;
  for (const auto& [t, sw] : plan.schedule.by_time()) {
    std::printf("  t%lld:", static_cast<long long>(t.count()));
    for (const auto v : sw) std::printf(" %s", g.name(v).c_str());
    std::printf("\n");
  }
  const auto report = timenet::verify_transition(inst, plan.schedule);
  std::printf("Verified: %s\n\n", report.ok() ? "clean" : "VIOLATIONS");

  // Execute: one abstract unit = 250 ms; update starts at wall time 3 s.
  const sim::SimTime unit = 250 * sim::kMillisecond;
  sim::Network network(inst.graph(), unit, 500e6);
  sim::EventQueue eq;
  util::Rng rng(3);
  sim::Controller ctrl(eq, network, rng);
  sim::SimFlowSpec spec;
  spec.rate_bps = 500e6;
  sim::install_initial_rules(ctrl, inst, spec);
  const auto run = sim::run_chronus_update(
      ctrl, inst, spec, 3 * sim::kSecond + 5 * sim::kMillisecond, unit);
  ctrl.flush();

  sim::TrafficFlow flow;
  flow.name = spec.name;
  flow.header.dst = spec.dst_prefix + "1";
  flow.header.in_port = sim::kHostPort;
  flow.ingress = inst.source();
  flow.rate_bps = spec.rate_bps;
  sim::TraceOptions topts;
  topts.t_begin = 0;
  topts.t_end = 10 * sim::kSecond;
  topts.quantum = 25 * sim::kMillisecond;
  const auto traffic = sim::trace_traffic(network, {flow}, topts);

  std::printf("Data plane during the drain: %zu loops, %zu drops, "
              "%zu over-capacity intervals\n\n",
              traffic.loops.size(), traffic.drops.size(),
              traffic.congestion.size());

  const auto through = *network.link_between(3, 4);   // m4 -> m5 (drained)
  const auto bypass = *network.link_between(m3, m6);  // m3 -> m6 (filling)
  std::printf("per-second bandwidth (Mbps)   m4->m5   m3->m6(bypass)\n");
  const auto a = sim::bandwidth_series(traffic, through, 0, 10 * sim::kSecond,
                                       sim::kSecond);
  const auto b = sim::bandwidth_series(traffic, bypass, 0, 10 * sim::kSecond,
                                       sim::kSecond);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::printf("  t=%2zus                      %6.1f   %6.1f\n", i,
                a[i] / 1e6, b[i] / 1e6);
  }
  std::printf("\nm4/m5 fully drained at %.2f s; safe to power down.\n",
              static_cast<double>(run.finish) / sim::kSecond);
  return 0;
}
