// End-to-end updater tests: the three update mechanisms driven through the
// simulated control plane on the paper's Fig. 1 network, with the fluid
// data plane measuring what the transition did to the traffic.
#include <gtest/gtest.h>

#include "core/multi_flow.hpp"
#include "net/generators.hpp"
#include "sim/resilient_executor.hpp"
#include "sim/updaters.hpp"

#include <cstdlib>
#include "sim/traffic.hpp"

namespace chronus::sim {
namespace {

constexpr SimTime kDelayUnit = 200 * kMillisecond;  // one abstract time unit
constexpr double kBpsPerUnit = 500e6;               // capacity 1.0 -> 500 Mbps

struct Bench {
  net::UpdateInstance inst = net::fig1_instance();
  Network net{inst.graph(), kDelayUnit, kBpsPerUnit};
  EventQueue eq;
  util::Rng rng;
  ControlChannelModel model;
  SimFlowSpec spec;

  explicit Bench(std::uint64_t seed) : rng(seed) {
    spec.rate_bps = 500e6;  // saturates every unit-capacity link
  }
};

TrafficFlow flow_of(const SimFlowSpec& spec, SwitchId ingress) {
  TrafficFlow f;
  f.name = spec.name;
  f.header.dst = spec.dst_prefix + "1";
  f.header.src = spec.src_prefix + "1";
  f.header.in_port = kHostPort;
  f.ingress = ingress;
  f.rate_bps = spec.rate_bps;
  return f;
}

TEST(ChronusUpdater, TimedUpdateKeepsTrafficClean) {
  Bench b(11);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  install_initial_rules(ctrl, b.inst, b.spec);
  // t0 deliberately off the fluid-quantum grid: a rule flip coinciding with
  // a class boundary within the clock-sync error is the (real) microsecond
  // race Time4 leaves open, which the 20 ms quantum would alias into a
  // certainty.
  const SimTime t0 = 2 * kSecond + 10 * kMillisecond;
  const UpdateRunResult run =
      run_chronus_update(ctrl, b.inst, b.spec, t0, kDelayUnit);
  ASSERT_EQ(run.plan_status, core::ScheduleStatus::kFeasible) << run.note;
  ctrl.flush();

  // All five switches updated, at their planned instants (± clock error).
  ASSERT_EQ(run.applied.size(), 5u);
  EXPECT_NEAR(static_cast<double>(run.applied.at(1)),
              static_cast<double>(t0), 1000.0);  // v2@t0
  EXPECT_NEAR(static_cast<double>(run.applied.at(4)),
              static_cast<double>(t0 + 3 * kDelayUnit), 1000.0);  // v5@t3

  TraceOptions opts;
  opts.t_begin = 0;
  opts.t_end = 8 * kSecond;
  opts.quantum = 20 * kMillisecond;
  const TrafficReport rep =
      trace_traffic(b.net, {flow_of(b.spec, b.inst.source())}, opts);
  EXPECT_TRUE(rep.loops.empty());
  EXPECT_TRUE(rep.drops.empty());
  EXPECT_TRUE(rep.congestion.empty());
}

TEST(ChronusUpdater, ReportsInfeasiblePlans) {
  net::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, net::Capacity{1.0}, 2);
  g.add_link(1, 2, net::Capacity{1.0}, 2);
  g.add_link(2, 3, net::Capacity{1.0}, 2);
  g.add_link(0, 2, net::Capacity{1.0}, 1);
  const auto inst = net::UpdateInstance::from_paths(
      g, net::Path{0, 1, 2, 3}, net::Path{0, 2, 3}, net::Demand{1.0});
  Network net(inst.graph(), kDelayUnit, kBpsPerUnit);
  EventQueue eq;
  util::Rng rng(5);
  Controller ctrl(eq, net, rng);
  SimFlowSpec spec;
  spec.rate_bps = 500e6;
  install_initial_rules(ctrl, inst, spec);
  const UpdateRunResult run =
      run_chronus_update(ctrl, inst, spec, kSecond, kDelayUnit);
  EXPECT_EQ(run.plan_status, core::ScheduleStatus::kInfeasible);
  EXPECT_TRUE(run.applied.empty());
}

TEST(OrUpdater, AsynchronousRoundsOftenCongest) {
  int congested = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Bench b(100 + seed);
    Controller ctrl(b.eq, b.net, b.rng, b.model);
    install_initial_rules(ctrl, b.inst, b.spec);
    const UpdateRunResult run =
        run_or_update(ctrl, b.inst, b.spec, 2 * kSecond);
    ASSERT_EQ(run.plan_status, core::ScheduleStatus::kFeasible) << run.note;
    ASSERT_EQ(run.applied.size(), 5u);
    ctrl.flush();

    TraceOptions opts;
    opts.t_begin = 0;
    opts.t_end = run.finish + 5 * kSecond;
    opts.quantum = 20 * kMillisecond;
    const TrafficReport rep =
        trace_traffic(b.net, {flow_of(b.spec, b.inst.source())}, opts);
    congested += !rep.congestion.empty() || !rep.loops.empty();
  }
  // OR ignores capacities and in-flight traffic: most asynchronous
  // realizations on Fig. 1 produce transient congestion or loops.
  EXPECT_GE(congested, 1);
}

TEST(OrUpdater, AppliesEveryRuleExactlyOnce) {
  Bench b(7);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  install_initial_rules(ctrl, b.inst, b.spec);
  const UpdateRunResult run = run_or_update(ctrl, b.inst, b.spec, kSecond);
  ctrl.flush();
  for (const auto& [sw, at] : run.applied) {
    EXPECT_GE(at, kSecond);
    EXPECT_LE(at, run.finish);
  }
  // 1 initial install + 1 update per switch on p_init; v6 only initial.
  EXPECT_EQ(b.net.sw(0).mods_applied(), 2u);
  EXPECT_EQ(b.net.sw(5).mods_applied(), 1u);
}

TEST(TwoPhaseUpdater, VersionedTransitionIsCleanAndGarbageCollected) {
  Bench b(21);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  install_initial_rules(ctrl, b.inst, b.spec, /*versioned=*/true);
  const UpdateRunResult run = run_two_phase_update(
      ctrl, b.inst, b.spec, 2 * kSecond, /*drain_margin=*/3 * kSecond);
  ctrl.flush();
  EXPECT_GT(run.flip_time, 2 * kSecond);
  EXPECT_GT(run.finish, run.flip_time + 3 * kSecond);

  TraceOptions opts;
  opts.t_begin = 0;
  opts.t_end = run.finish + 2 * kSecond;
  opts.quantum = 20 * kMillisecond;
  const TrafficReport rep =
      trace_traffic(b.net, {flow_of(b.spec, b.inst.source())}, opts);
  // Per-packet consistency on Fig. 1 (paths share no link): clean.
  EXPECT_TRUE(rep.loops.empty());
  EXPECT_TRUE(rep.drops.empty()) << rep.drops.size();
  EXPECT_TRUE(rep.congestion.empty());

  // During the transition both generations coexisted; afterwards the old
  // generation is gone.
  const SwitchId ingress = b.inst.source();
  EXPECT_GT(b.net.sw(ingress).peak_table_size(),
            b.net.sw(ingress).table().size() - 1);
  // v5 (old path only) holds no rules after cleanup.
  EXPECT_EQ(b.net.sw(4).table().size(), 0u);
  // v2 and v3 are on the new path: exactly the new-generation rule remains.
  EXPECT_EQ(b.net.sw(1).table().size(), 1u);
  EXPECT_EQ(b.net.sw(2).table().size(), 1u);
}

TEST(TwoPhaseUpdater, OldPacketsDrainOnOldPath) {
  Bench b(22);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  install_initial_rules(ctrl, b.inst, b.spec, /*versioned=*/true);
  const UpdateRunResult run = run_two_phase_update(
      ctrl, b.inst, b.spec, 2 * kSecond, 3 * kSecond);
  ctrl.flush();
  TraceOptions opts;
  opts.t_begin = 0;
  opts.t_end = run.finish + 2 * kSecond;
  opts.quantum = 20 * kMillisecond;
  const TrafficReport rep =
      trace_traffic(b.net, {flow_of(b.spec, b.inst.source())}, opts);
  // Traffic flowed over the old tail (v5->v6) before the flip and over the
  // new tail (v2->v6) after it.
  const auto old_tail = *b.net.link_between(4, 5);
  const auto new_tail = *b.net.link_between(1, 5);
  EXPECT_GT(rep.offered_bps[old_tail].at(kSecond), 0.0);
  EXPECT_DOUBLE_EQ(rep.offered_bps[new_tail].at(kSecond), 0.0);
  EXPECT_GT(rep.offered_bps[new_tail].at(run.flip_time + kSecond), 0.0);
  EXPECT_DOUBLE_EQ(rep.offered_bps[old_tail].at(run.finish + kSecond), 0.0);
}

TEST(MultiFlowSim, JointPlanExecutesBothFlowsCleanly) {
  // Two aggregates over one fabric move to private bypasses; the joint
  // plan overlaps their transitions, and the fluid data plane confirms
  // neither traffic stream ever loops, drops or overloads a link.
  net::Graph g;
  g.add_nodes(6);  // s0=0 s1=1 m=2 t=3 b0=4 b1=5
  g.add_link(0, 2, net::Capacity{2.0}, 1);
  g.add_link(1, 2, net::Capacity{2.0}, 1);
  g.add_link(2, 3, net::Capacity{2.0}, 1);
  g.add_link(0, 4, net::Capacity{2.0}, 1);
  g.add_link(4, 3, net::Capacity{2.0}, 1);
  g.add_link(1, 5, net::Capacity{2.0}, 1);
  g.add_link(5, 3, net::Capacity{2.0}, 1);
  std::vector<net::UpdateInstance> flows;
  flows.push_back(net::UpdateInstance::from_paths(
      g, net::Path{0, 2, 3}, net::Path{0, 4, 3}, net::Demand{1.0}));
  flows.push_back(net::UpdateInstance::from_paths(
      g, net::Path{1, 2, 3}, net::Path{1, 5, 3}, net::Demand{1.0}));
  const auto plan = core::schedule_flows_jointly(flows);
  ASSERT_TRUE(plan.feasible()) << plan.message;

  Network network(g, kDelayUnit, kBpsPerUnit);
  EventQueue eq;
  util::Rng rng(61);
  Controller ctrl(eq, network, rng);

  std::vector<SimFlowSpec> specs(2);
  specs[0].name = "f0";
  specs[0].dst_prefix = "10.0.2.";
  specs[0].rate_bps = 500e6;
  specs[1].name = "f1";
  specs[1].src_prefix = "10.0.3.";
  specs[1].dst_prefix = "10.0.4.";
  specs[1].rate_bps = 500e6;
  for (std::size_t k = 0; k < flows.size(); ++k) {
    install_initial_rules(ctrl, flows[k], specs[k]);
  }

  const SimTime t0 = 2 * kSecond + 10 * kMillisecond;
  std::vector<UpdateRunResult> runs;
  for (std::size_t k = 0; k < flows.size(); ++k) {
    runs.push_back(run_timed_schedule(ctrl, flows[k], specs[k],
                                      plan.schedules[k], t0, kDelayUnit,
                                      /*confirm_with_barriers=*/false));
  }
  ctrl.flush();

  // Both flows' activations land in one overlapping wall-clock window.
  ASSERT_FALSE(runs[0].applied.empty());
  ASSERT_FALSE(runs[1].applied.empty());
  EXPECT_LE(std::abs(static_cast<long long>(
                runs[0].applied.begin()->second -
                runs[1].applied.begin()->second)),
            2 * kDelayUnit);

  std::vector<TrafficFlow> traffic;
  for (std::size_t k = 0; k < flows.size(); ++k) {
    traffic.push_back(flow_of(specs[k], flows[k].source()));
  }
  TraceOptions opts;
  opts.t_begin = 0;
  opts.t_end = 8 * kSecond;
  opts.quantum = 20 * kMillisecond;
  const TrafficReport rep = trace_traffic(network, traffic, opts);
  EXPECT_TRUE(rep.loops.empty());
  EXPECT_TRUE(rep.drops.empty());
  EXPECT_TRUE(rep.congestion.empty());

  // Both aggregates ended up on their bypasses.
  EXPECT_GT(rep.offered_bps[*network.link_between(4, 3)].at(7 * kSecond),
            0.0);
  EXPECT_GT(rep.offered_bps[*network.link_between(5, 3)].at(7 * kSecond),
            0.0);
}

// --- ResilientExecutor: bit-identical to the seed executors without faults.

TEST(ResilientExecutor, ZeroFaultChronusMatchesSeedExecutorExactly) {
  Bench seed(11);
  Controller seed_ctrl(seed.eq, seed.net, seed.rng, seed.model);
  install_initial_rules(seed_ctrl, seed.inst, seed.spec);
  const SimTime t0 = 2 * kSecond + 10 * kMillisecond;
  const UpdateRunResult want =
      run_chronus_update(seed_ctrl, seed.inst, seed.spec, t0, kDelayUnit);

  Bench b(11);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  // An attached injector with every knob at zero must change nothing.
  FaultInjector inj((FaultModel()));
  ctrl.attach_fault_injector(&inj);
  install_initial_rules(ctrl, b.inst, b.spec);
  ResilientExecutor exec(ctrl);
  const UpdateRunReport rep = exec.run_chronus(b.inst, b.spec, t0, kDelayUnit);

  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.fallback, UpdateRunReport::Fallback::kNone);
  EXPECT_EQ(rep.retries, 0);
  EXPECT_EQ(rep.faults.injected(), 0u);
  EXPECT_EQ(rep.result.applied, want.applied);
  EXPECT_EQ(rep.result.start, want.start);
  EXPECT_EQ(rep.result.finish, want.finish);
  EXPECT_EQ(rep.result.plan_status, want.plan_status);
  // The consistency monitor replays a clean run as the planned schedule.
  ASSERT_TRUE(rep.verified);
  EXPECT_TRUE(rep.verification.ok())
      << rep.verification.to_string(b.inst.graph());
}

TEST(ResilientExecutor, ZeroFaultOrMatchesSeedExecutorExactly) {
  Bench seed(7);
  Controller seed_ctrl(seed.eq, seed.net, seed.rng, seed.model);
  install_initial_rules(seed_ctrl, seed.inst, seed.spec);
  const UpdateRunResult want =
      run_or_update(seed_ctrl, seed.inst, seed.spec, kSecond);

  Bench b(7);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  install_initial_rules(ctrl, b.inst, b.spec);
  ResilientExecutor exec(ctrl);
  const UpdateRunReport rep = exec.run_or(b.inst, b.spec, kSecond, kDelayUnit);

  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.retries, 0);
  EXPECT_EQ(rep.result.applied, want.applied);
  EXPECT_EQ(rep.result.start, want.start);
  EXPECT_EQ(rep.result.finish, want.finish);
}

TEST(ResilientExecutor, ZeroFaultTwoPhaseMatchesSeedExecutorExactly) {
  Bench seed(21);
  Controller seed_ctrl(seed.eq, seed.net, seed.rng, seed.model);
  install_initial_rules(seed_ctrl, seed.inst, seed.spec, /*versioned=*/true);
  const UpdateRunResult want = run_two_phase_update(
      seed_ctrl, seed.inst, seed.spec, 2 * kSecond, 3 * kSecond);

  Bench b(21);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  install_initial_rules(ctrl, b.inst, b.spec, /*versioned=*/true);
  ResilientExecutor exec(ctrl);
  const UpdateRunReport rep =
      exec.run_two_phase(b.inst, b.spec, 2 * kSecond, 3 * kSecond, kDelayUnit);

  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.retries, 0);
  EXPECT_EQ(rep.result.applied, want.applied);
  EXPECT_EQ(rep.result.flip_time, want.flip_time);
  EXPECT_EQ(rep.result.start, want.start);
  EXPECT_EQ(rep.result.finish, want.finish);
  ASSERT_TRUE(rep.verified);
  EXPECT_TRUE(rep.verification.ok())
      << rep.verification.to_string(b.inst.graph());
}

// --- ResilientExecutor: recovery under the ISSUE's fault envelope
// (drops <= 10%, stragglers up to 10x) leaves zero post-hoc violations.

TEST(ResilientExecutor, RecoversFromDropsAndStragglers) {
  for (std::uint64_t seed = 301; seed <= 303; ++seed) {
    Bench b(seed);
    FaultModel m;
    m.drop_rate = 0.10;
    m.straggler_rate = 0.20;
    m.straggler_multiplier = 10.0;
    FaultInjector inj(m, /*seed=*/seed * 13);
    Controller ctrl(b.eq, b.net, b.rng, b.model);
    ctrl.attach_fault_injector(&inj);
    install_initial_rules(ctrl, b.inst, b.spec);

    RetryPolicy pol;
    pol.max_attempts = 5;
    ResilientExecutor exec(ctrl, pol);
    const SimTime t0 = 4 * kSecond + 10 * kMillisecond;
    const UpdateRunReport rep =
        exec.run_chronus(b.inst, b.spec, t0, kDelayUnit);

    EXPECT_TRUE(rep.completed) << "seed " << seed;
    EXPECT_EQ(rep.result.applied.size(), 5u) << "seed " << seed;
    ASSERT_TRUE(rep.verified);
    EXPECT_TRUE(rep.verification.ok())
        << "seed " << seed << ": "
        << rep.verification.to_string(b.inst.graph());
    // Full accounting: every drop of a planned mod forced a re-send.
    if (rep.faults.drops > 0) {
      EXPECT_GT(rep.retries, 0) << "seed " << seed;
    }
    EXPECT_EQ(rep.faults.drops + rep.faults.stragglers +
                  rep.faults.duplicates + rep.faults.reorders +
                  rep.faults.rejections + rep.faults.unresponsive_delays,
              rep.faults.injected());
    ctrl.flush();
    // The data plane agrees: the flow ends on p_fin and stays clean.
    TraceOptions opts;
    opts.t_begin = 0;
    opts.t_end = rep.result.finish + 5 * kSecond;
    opts.quantum = 20 * kMillisecond;
    const TrafficReport traffic =
        trace_traffic(b.net, {flow_of(b.spec, b.inst.source())}, opts);
    EXPECT_TRUE(traffic.loops.empty()) << "seed " << seed;
    EXPECT_TRUE(traffic.drops.empty()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace chronus::sim
