// Quickstart: schedule a consistent timed update with Chronus.
//
// Builds the paper's Fig. 1 network, asks the greedy scheduler (Algorithm 2)
// for a congestion- and loop-free timed update sequence, verifies it in the
// time-extended network and executes it through the simulated control
// plane, printing the Table II-style flow tables before and after.
//
//   ./examples/quickstart
#include <cstdio>

#include "core/greedy_scheduler.hpp"
#include "net/generators.hpp"
#include "sim/updaters.hpp"
#include "timenet/verifier.hpp"

using namespace chronus;

namespace {

void print_flow_table(const sim::Network& net, sim::SwitchId id) {
  std::printf("  flow table at %s:\n", net.graph().name(id).c_str());
  for (const auto& e : net.sw(id).table().entries()) {
    std::printf("    %s\n", e.to_string().c_str());
  }
}

}  // namespace

int main() {
  // 1. The update instance: old path (solid), new path (dashed), demand.
  const net::UpdateInstance inst = net::fig1_instance();
  std::printf("Initial path: %s\n",
              net::to_string(inst.graph(), inst.p_init()).c_str());
  std::printf("Final path:   %s\n\n",
              net::to_string(inst.graph(), inst.p_fin()).c_str());

  // 2. Plan: Algorithm 2 assigns each switch an exact update time point.
  const core::ScheduleResult plan = core::greedy_schedule(inst);
  if (!plan.feasible()) {
    std::printf("no safe schedule: %s\n", plan.message.c_str());
    return 1;
  }
  std::printf("Timed update schedule (abstract time units):\n");
  for (const auto& [t, switches] : plan.schedule.by_time()) {
    std::printf("  t%lld:", static_cast<long long>(t.count()));
    for (const auto v : switches) std::printf(" %s", inst.graph().name(v).c_str());
    std::printf("\n");
  }

  // 3. Verify: replay the transition in the time-extended network.
  const auto report = timenet::verify_transition(inst, plan.schedule);
  std::printf("\nVerification: %s\n",
              report.ok() ? "congestion- and loop-free at every moment"
                          : report.to_string(inst.graph()).c_str());

  // 4. Execute through the simulated control plane with Time4-style timed
  //    FlowMods (one abstract unit = 200 ms of wall time here).
  const sim::SimTime unit = 200 * sim::kMillisecond;
  sim::Network network(inst.graph(), unit, 500e6);  // 1.0 => 500 Mbps
  sim::EventQueue eq;
  util::Rng rng(1);
  sim::Controller ctrl(eq, network, rng);
  sim::SimFlowSpec spec;
  spec.rate_bps = 500e6;
  sim::install_initial_rules(ctrl, inst, spec);
  ctrl.flush();

  std::printf("\nBefore the update:\n");
  print_flow_table(network, inst.source());
  print_flow_table(network, inst.destination());

  const auto run = sim::run_chronus_update(
      ctrl, inst, spec, 2 * sim::kSecond + 10 * sim::kMillisecond, unit);
  ctrl.flush();
  std::printf("\nUpdate executed: first rule at %.3f s, done at %.3f s\n",
              static_cast<double>(run.applied.begin()->second) / sim::kSecond,
              static_cast<double>(run.finish) / sim::kSecond);

  std::printf("\nAfter the update:\n");
  print_flow_table(network, inst.source());
  print_flow_table(network, inst.destination());
  return 0;
}
