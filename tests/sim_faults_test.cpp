// Fault-injection layer and self-healing executor: unit tests for the
// injector's fault modes as seen through the controller's ledger, the
// event queue's cancellation support (Time4 bundle discard), and the
// ResilientExecutor's degradation ladder (retry -> suffix re-plan ->
// two-phase overlay -> rollback) on the paper's Fig. 1 network.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "net/generators.hpp"
#include "sim/resilient_executor.hpp"
#include "util/contracts.hpp"

namespace chronus::sim {
namespace {

constexpr SimTime kDelayUnit = 200 * kMillisecond;  // one abstract time unit
constexpr double kBpsPerUnit = 500e6;

struct Bench {
  net::UpdateInstance inst = net::fig1_instance();
  Network net{inst.graph(), kDelayUnit, kBpsPerUnit};
  EventQueue eq;
  util::Rng rng;
  ControlChannelModel model;
  SimFlowSpec spec;

  explicit Bench(std::uint64_t seed) : rng(seed) {
    spec.rate_bps = 500e6;
  }
};

FlowMod add_mod(const FlowEntry& entry) {
  FlowMod mod;
  mod.type = FlowModType::kAdd;
  mod.entry = entry;
  return mod;
}

TEST(EventQueueCancel, TombstonesPendingEventsOnly) {
  EventQueue eq;
  std::vector<int> fired;
  const EventId a = eq.schedule_at(10, [&] { fired.push_back(1); });
  const EventId b = eq.schedule_at(20, [&] { fired.push_back(2); });
  eq.schedule_at(30, [&] { fired.push_back(3); });
  EXPECT_EQ(eq.pending(), 3u);
  EXPECT_EQ(eq.next_event_time(), 10);

  EXPECT_TRUE(eq.cancel(b));
  EXPECT_FALSE(eq.cancel(b));  // already cancelled
  EXPECT_EQ(eq.pending(), 2u);

  eq.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_FALSE(eq.cancel(a));  // already executed
  EXPECT_EQ(eq.next_event_time(), kNoEvent);
  EXPECT_TRUE(eq.empty());
}

TEST(EventQueueCancel, CancelledHeadDoesNotBlockNextEventTime) {
  EventQueue eq;
  int fired = 0;
  const EventId head = eq.schedule_at(5, [&] { ++fired; });
  eq.schedule_at(9, [&] { ++fired; });
  EXPECT_TRUE(eq.cancel(head));
  EXPECT_EQ(eq.next_event_time(), 9);
  eq.run();
  EXPECT_EQ(fired, 1);
}

TEST(ControllerFaults, OutOfRangeSwitchIdThrows) {
  Bench b(1);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  EXPECT_THROW(ctrl.barrier(99), std::out_of_range);
  EXPECT_THROW(ctrl.install_now(99, FlowEntry{}), std::out_of_range);
  EXPECT_THROW(ctrl.issue_flow_mod(99, FlowMod{}), std::out_of_range);
  EXPECT_THROW(ctrl.send_timed_flow_mod(99, FlowMod{}, kSecond),
               std::out_of_range);
}

TEST(FaultInjectorTest, SameSeedSameDecisionStream) {
  FaultModel m;
  m.drop_rate = 0.2;
  m.duplicate_rate = 0.1;
  m.reorder_rate = 0.1;
  m.reject_rate = 0.1;
  m.straggler_rate = 0.3;
  FaultInjector a(m, 99);
  FaultInjector c(m, 99);
  for (int i = 0; i < 200; ++i) {
    const auto da = a.on_flow_mod(static_cast<SwitchId>(i % 4));
    const auto dc = c.on_flow_mod(static_cast<SwitchId>(i % 4));
    EXPECT_EQ(da.drop, dc.drop);
    EXPECT_EQ(da.duplicate, dc.duplicate);
    EXPECT_EQ(da.reorder, dc.reorder);
    EXPECT_EQ(da.reject, dc.reject);
    EXPECT_EQ(da.straggler, dc.straggler);
  }
  EXPECT_EQ(a.stats().mods_seen, 200u);
  EXPECT_EQ(a.stats().drops, c.stats().drops);
  EXPECT_EQ(a.stats().stragglers, c.stats().stragglers);
  EXPECT_GT(a.stats().injected(), 0u);
}

TEST(FaultInjectorTest, AllZeroModelIsDisabled) {
  FaultModel m;
  EXPECT_FALSE(m.enabled());
  m.straggler_multiplier = 25.0;  // a multiplier alone injects nothing
  EXPECT_FALSE(m.enabled());
  m.drop_rate = 0.01;
  EXPECT_TRUE(m.enabled());
}

TEST(ControllerFaults, DroppedModIsRecordedButInvisibleToBarrier) {
  Bench b(2);
  FaultModel m;
  m.per_switch_drop[0] = 1.0;
  FaultInjector inj(m);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  ctrl.attach_fault_injector(&inj);

  const FlowEntry entry = make_forwarding_entry(b.spec, 1);
  const ModId id = ctrl.issue_flow_mod(0, add_mod(entry));
  EXPECT_TRUE(ctrl.record(id).dropped);
  EXPECT_TRUE(ctrl.record(id).faulted());
  EXPECT_FALSE(ctrl.record(id).installed());
  EXPECT_EQ(ctrl.record(id).applied, kNever);

  // The barrier completes without waiting for the lost mod...
  EXPECT_LT(ctrl.barrier(0), 30 * kSecond);
  ctrl.flush();
  // ...and the switch never saw it.
  EXPECT_EQ(b.net.sw(0).mods_applied(), 0u);
  EXPECT_FALSE(ctrl.active_action(0, entry.match, entry.priority).has_value());
  EXPECT_EQ(inj.stats().drops, 1u);
}

TEST(ControllerFaults, RejectionLeavesTableUntouched) {
  Bench b(3);
  FaultModel m;
  m.reject_rate = 1.0;
  FaultInjector inj(m);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  ctrl.attach_fault_injector(&inj);

  const FlowEntry entry = make_forwarding_entry(b.spec, 1);
  const ModId id = ctrl.issue_flow_mod(0, add_mod(entry));
  EXPECT_TRUE(ctrl.record(id).rejected);
  EXPECT_FALSE(ctrl.record(id).installed());
  ctrl.flush();
  EXPECT_EQ(b.net.sw(0).mods_applied(), 0u);
  EXPECT_EQ(b.net.sw(0).mods_rejected(), 1u);
  EXPECT_EQ(b.net.sw(0).table().size(), 0u);
  EXPECT_FALSE(ctrl.active_action(0, entry.match, entry.priority).has_value());
}

TEST(ControllerFaults, DuplicateAppliesTwice) {
  Bench b(4);
  FaultModel m;
  m.duplicate_rate = 1.0;
  FaultInjector inj(m);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  ctrl.attach_fault_injector(&inj);

  const FlowEntry entry = make_forwarding_entry(b.spec, 1);
  const ModId id = ctrl.issue_flow_mod(0, add_mod(entry));
  EXPECT_TRUE(ctrl.record(id).duplicated);
  ctrl.flush();
  EXPECT_EQ(b.net.sw(0).mods_applied(), 2u);
  // Idempotent: the table still holds exactly one copy of the entry.
  EXPECT_EQ(b.net.sw(0).table().size(), 1u);
}

TEST(ControllerFaults, ReorderedModEscapesTheFifo) {
  Bench b(5);
  FaultModel m;
  m.reorder_rate = 1.0;
  FaultInjector inj(m);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  ctrl.attach_fault_injector(&inj);

  // A timed mod parks the FIFO far in the future; a reordered async mod
  // slips past it instead of being clamped behind it.
  const FlowEntry entry = make_forwarding_entry(b.spec, 1);
  ctrl.issue_timed_flow_mod(0, add_mod(entry), 30 * kSecond);
  const ModId id = ctrl.issue_flow_mod(0, add_mod(entry));
  EXPECT_TRUE(ctrl.record(id).reordered);
  EXPECT_EQ(ctrl.record(id).applied, ctrl.record(id).arrival);
  EXPECT_LT(ctrl.record(id).applied, 30 * kSecond);
}

TEST(ControllerFaults, ForcedOutageDelaysArrivals) {
  Bench b(6);
  FaultModel m;
  m.forced_outage[0] = {0, 5 * kSecond};
  FaultInjector inj(m);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  ctrl.attach_fault_injector(&inj);

  const FlowEntry entry = make_forwarding_entry(b.spec, 1);
  const ModId id = ctrl.issue_flow_mod(0, add_mod(entry));
  EXPECT_TRUE(ctrl.record(id).delayed);
  EXPECT_GE(ctrl.record(id).arrival, 5 * kSecond);
  EXPECT_GE(ctrl.record(id).applied, 5 * kSecond);
  EXPECT_EQ(inj.stats().unresponsive_delays, 1u);
}

TEST(ControllerFaults, RecalledTimedModReleasesItsFifoSlot) {
  Bench b(7);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  const FlowEntry entry = make_forwarding_entry(b.spec, 1);
  const ModId id = ctrl.issue_timed_flow_mod(0, add_mod(entry), 30 * kSecond);
  ASSERT_TRUE(ctrl.cancel_mod(id));
  EXPECT_TRUE(ctrl.record(id).cancelled);
  EXPECT_FALSE(ctrl.cancel_mod(id));  // second recall is a no-op
  // The barrier is no longer clamped behind the recalled execution instant.
  EXPECT_LT(ctrl.barrier(0), 30 * kSecond);
  ctrl.flush();
  EXPECT_EQ(b.net.sw(0).mods_applied(), 0u);
  EXPECT_FALSE(ctrl.active_action(0, entry.match, entry.priority).has_value());
}

// --- The degradation ladder on Fig. 1.

TEST(ResilientLadder, RejectionBurstIsAbsorbedByInStepRetries) {
  Bench b(30);
  FaultModel m;
  m.reject_first_n[1] = 2;  // v2 refuses its first two installs
  FaultInjector inj(m);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  ctrl.attach_fault_injector(&inj);
  install_initial_rules(ctrl, b.inst, b.spec);

  ResilientExecutor exec(ctrl);  // max_attempts = 3 covers the burst
  const UpdateRunReport rep = exec.run_chronus(
      b.inst, b.spec, 2 * kSecond + 10 * kMillisecond, kDelayUnit);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.fallback, UpdateRunReport::Fallback::kNone);
  EXPECT_EQ(rep.replans, 0);
  EXPECT_EQ(rep.retries, 2);
  EXPECT_EQ(rep.faults.rejections, 2u);
  EXPECT_EQ(rep.result.applied.size(), 5u);
  ASSERT_TRUE(rep.verified);
}

TEST(ResilientLadder, RetryExhaustionTriggersSuffixReplan) {
  Bench b(31);
  FaultModel m;
  m.reject_first_n[4] = 2;  // v5 (the redirect switch) refuses twice
  FaultInjector inj(m);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  ctrl.attach_fault_injector(&inj);
  install_initial_rules(ctrl, b.inst, b.spec);

  RetryPolicy pol;
  pol.max_attempts = 2;  // timed send + one retry: the burst outlasts them
  ResilientExecutor exec(ctrl, pol);
  const UpdateRunReport rep = exec.run_chronus(
      b.inst, b.spec, 2 * kSecond + 10 * kMillisecond, kDelayUnit);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.fallback, UpdateRunReport::Fallback::kReplan);
  EXPECT_EQ(rep.replans, 1);
  EXPECT_FALSE(rep.rolled_back);
  EXPECT_EQ(rep.result.applied.size(), 5u);
  ASSERT_TRUE(rep.verified);
  EXPECT_TRUE(rep.verification.ok())
      << rep.verification.to_string(b.inst.graph());
  EXPECT_FALSE(rep.events.empty());
}

TEST(ResilientLadder, UnrecoverableSwitchFallsBackToTwoPhase) {
  Bench b(32);
  FaultModel m;
  m.reject_first_n[4] = 100;  // v5 never accepts an install
  FaultInjector inj(m);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  ctrl.attach_fault_injector(&inj);
  install_initial_rules(ctrl, b.inst, b.spec);

  RetryPolicy pol;
  pol.max_attempts = 2;
  pol.max_replans = 0;  // jump straight past the re-plan rung
  ResilientExecutor exec(ctrl, pol);
  const UpdateRunReport rep = exec.run_chronus(
      b.inst, b.spec, 2 * kSecond + 10 * kMillisecond, kDelayUnit);
  // v5 is a redirect helper off p_fin; the versioned overlay of p_fin does
  // not need it, so the two-phase rung completes the update.
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.fallback, UpdateRunReport::Fallback::kTwoPhase);
  EXPECT_FALSE(rep.rolled_back);
  EXPECT_GT(rep.result.flip_time, 0);
  ASSERT_TRUE(rep.verified);
  EXPECT_TRUE(rep.verification.ok())
      << rep.verification.to_string(b.inst.graph());
  // The ingress now stamps the new version.
  const FlowEntry stamp = make_stamping_entry(
      b.spec, kNewVersion,
      ctrl.network().port_towards(b.inst.p_fin()[0], b.inst.p_fin()[1]));
  EXPECT_TRUE(ctrl.active_action(b.inst.source(), stamp.match, stamp.priority)
                  .has_value());
}

TEST(ResilientLadder, TotalFailureRollsBackCleanly) {
  Bench b(33);
  FaultModel m;
  m.per_switch_drop[1] = 1.0;  // v2 (on p_fin) drops every mod, forever
  FaultInjector inj(m);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  ctrl.attach_fault_injector(&inj);
  install_initial_rules(ctrl, b.inst, b.spec);

  RetryPolicy pol;
  pol.max_attempts = 2;
  pol.max_replans = 1;
  ResilientExecutor exec(ctrl, pol);
  const UpdateRunReport rep = exec.run_chronus(
      b.inst, b.spec, 2 * kSecond + 10 * kMillisecond, kDelayUnit);

  EXPECT_FALSE(rep.completed);
  EXPECT_TRUE(rep.rolled_back);
  EXPECT_TRUE(rep.rollback_clean);
  EXPECT_EQ(rep.fallback, UpdateRunReport::Fallback::kRollback);
  EXPECT_EQ(rep.replans, 1);
  EXPECT_GT(rep.faults.drops, 0u);
  EXPECT_FALSE(rep.events.empty());
  ctrl.flush();

  // The initial configuration survives: every p_init switch still forwards
  // to its old successor, and no overlay rules are left behind.
  const net::Path& init = b.inst.p_init();
  for (std::size_t i = 0; i + 1 < init.size(); ++i) {
    const FlowEntry old_rule = make_forwarding_entry(
        b.spec, ctrl.network().port_towards(init[i], init[i + 1]));
    const auto act =
        ctrl.active_action(init[i], old_rule.match, old_rule.priority);
    ASSERT_TRUE(act.has_value()) << "switch " << init[i];
    EXPECT_EQ(*act, old_rule.action) << "switch " << init[i];
  }
  EXPECT_EQ(b.net.sw(2).table().size(), 1u);  // v3: old rule only
  EXPECT_EQ(b.net.sw(3).table().size(), 1u);  // v4: old rule only
  EXPECT_EQ(b.net.sw(5).table().size(), 1u);  // v6: host rule only
}

TEST(ResilientLadder, RejectedBundleIsResentBeforeItsInstant) {
  // s=0 -> a=1 -> b=2 -> t=3 moves to s -> c=4 -> d=5 -> t in one step:
  // c and d hold no rule before the update, and s flips at the same
  // instant as they install. c refuses its timed bundle; had the bundle
  // waited for the step's barrier sweep, traffic would reach c before
  // its rule did.
  net::Graph g;
  g.add_nodes(6);
  for (const auto& [u, v] : {std::pair{0, 1}, {1, 2}, {2, 3}, {0, 4},
                             {4, 5}, {5, 3}}) {
    g.add_link(static_cast<net::NodeId>(u), static_cast<net::NodeId>(v),
               net::Capacity{1.0}, 1);
  }
  const net::UpdateInstance inst = net::UpdateInstance::from_paths(
      std::move(g), {0, 1, 2, 3}, {0, 4, 5, 3}, net::Demand{1.0});
  constexpr SimTime kStep = 50 * kMillisecond;  // the service's step unit
  Network net(inst.graph(), kStep, kBpsPerUnit);
  EventQueue eq;
  util::Rng rng(34);
  const ControlChannelModel model{.latency_median = 10 * kMillisecond,
                                  .latency_sigma = 0.5};
  SimFlowSpec spec;
  spec.rate_bps = 500e6;
  FaultModel m;
  m.reject_first_n[4] = 1;  // c's first install is its timed bundle
  FaultInjector inj(m);
  Controller ctrl(eq, net, rng, model);
  ctrl.attach_fault_injector(&inj);
  install_initial_rules(ctrl, inst, spec);

  timenet::UpdateSchedule sched;
  for (const net::NodeId v : {0u, 4u, 5u}) sched.set(v, timenet::TimePoint{0});
  ResilientExecutor exec(ctrl);
  const UpdateRunReport rep =
      exec.run_timed(inst, spec, sched, 500 * kMillisecond, kStep);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.fallback, UpdateRunReport::Fallback::kNone);
  EXPECT_EQ(rep.faults.rejections, 1u);
  EXPECT_EQ(rep.retries, 1);
  ASSERT_TRUE(rep.verified);
  EXPECT_TRUE(rep.verification.blackholes.empty())
      << rep.verification.to_string(inst.graph());
  EXPECT_TRUE(rep.verification.ok())
      << rep.verification.to_string(inst.graph());
  // c's rule was in place before the first packet s sent its way (one
  // link delay after s flipped) reached it.
  const auto c_rule = rep.result.applied.find(4);
  const auto s_rule = rep.result.applied.find(0);
  ASSERT_NE(c_rule, rep.result.applied.end());
  ASSERT_NE(s_rule, rep.result.applied.end());
  EXPECT_LT(c_rule->second, s_rule->second + kStep);
}

// --- FaultModel contract validation (enforced by the injector ctor).

TEST(FaultModelValidate, AcceptsEveryDefaultAndSaneModel) {
  FaultModel m;
  EXPECT_NO_THROW(m.validate());
  m.drop_rate = 1.0;
  m.reject_rate = 0.0;
  m.per_switch_drop[3] = 0.5;
  m.reject_first_n[1] = 0;
  m.forced_outage[0] = {0, kSecond};
  EXPECT_NO_THROW(m.validate());
  EXPECT_NO_THROW(FaultInjector(m, 1));
}

TEST(FaultModelValidate, RejectsOutOfRangeRates) {
  FaultModel m;
  m.drop_rate = 1.5;
  EXPECT_THROW(m.validate(), util::ContractViolation);
  m.drop_rate = 0.0;
  m.reorder_rate = -0.1;
  EXPECT_THROW(m.validate(), util::ContractViolation);
  m.reorder_rate = 0.0;
  m.per_switch_drop[2] = 2.0;
  EXPECT_THROW(m.validate(), util::ContractViolation);
  // The injector refuses to be built on a malformed model.
  EXPECT_THROW(FaultInjector(m, 1), util::ContractViolation);
}

TEST(FaultModelValidate, RejectsNegativeCountsAndDurations) {
  FaultModel m;
  m.reject_first_n[0] = -1;
  EXPECT_THROW(m.validate(), util::ContractViolation);
  m.reject_first_n.clear();
  m.straggler_multiplier = -1.0;
  EXPECT_THROW(m.validate(), util::ContractViolation);
  m.straggler_multiplier = 10.0;
  m.unresponsive_duration = -kSecond;
  EXPECT_THROW(m.validate(), util::ContractViolation);
  m.unresponsive_duration = 0;
  m.clock_drift_stddev = -1;
  EXPECT_THROW(m.validate(), util::ContractViolation);
}

TEST(FaultModelValidate, RejectsIllOrderedOutageWindows) {
  FaultModel m;
  m.forced_outage[0] = {kSecond, kSecond};  // empty window
  EXPECT_THROW(m.validate(), util::ContractViolation);
  m.forced_outage[0] = {2 * kSecond, kSecond};  // inverted
  EXPECT_THROW(m.validate(), util::ContractViolation);
  m.forced_outage[0] = {-1, kSecond};  // negative start
  EXPECT_THROW(m.validate(), util::ContractViolation);
}

// --- Edge cases of the fault modes in combination.

TEST(ControllerFaults, OverlappingOutageWindowsDelayEachSwitch) {
  Bench b(11);
  FaultModel m;
  // Overlapping windows on different switches: each arrival is shaped by
  // its own switch's window only.
  m.forced_outage[0] = {0, 5 * kSecond};
  m.forced_outage[1] = {0, 3 * kSecond};
  FaultInjector inj(m);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  ctrl.attach_fault_injector(&inj);

  const FlowEntry entry = make_forwarding_entry(b.spec, 1);
  const ModId on0 = ctrl.issue_flow_mod(0, add_mod(entry));
  const ModId on1 = ctrl.issue_flow_mod(1, add_mod(entry));
  EXPECT_GE(ctrl.record(on0).arrival, 5 * kSecond);
  EXPECT_GE(ctrl.record(on1).arrival, 3 * kSecond);
  EXPECT_LT(ctrl.record(on1).arrival, 5 * kSecond);
  EXPECT_EQ(inj.stats().unresponsive_delays, 2u);
}

TEST(ControllerFaults, PerSwitchDropOverridesZeroGlobalRate) {
  Bench b(12);
  FaultModel m;
  m.drop_rate = 0.0;          // globally lossless...
  m.per_switch_drop[0] = 1.0; // ...except switch 0, which loses everything
  FaultInjector inj(m);
  Controller ctrl(b.eq, b.net, b.rng, b.model);
  ctrl.attach_fault_injector(&inj);

  const FlowEntry entry = make_forwarding_entry(b.spec, 1);
  const ModId lost = ctrl.issue_flow_mod(0, add_mod(entry));
  const ModId kept = ctrl.issue_flow_mod(1, add_mod(entry));
  EXPECT_TRUE(ctrl.record(lost).dropped);
  EXPECT_FALSE(ctrl.record(kept).dropped);
  ctrl.flush();
  EXPECT_EQ(b.net.sw(0).mods_applied(), 0u);
  EXPECT_EQ(b.net.sw(1).mods_applied(), 1u);
  EXPECT_EQ(inj.stats().drops, 1u);
}

TEST(FaultInjectorTest, RejectFirstNInterleavesWithRejectRate) {
  FaultModel m;
  m.reject_first_n[0] = 2;  // deterministic: first two mods to switch 0
  m.reject_rate = 1.0;      // then the rate takes over (here: always)
  FaultInjector inj(m, 5);
  // The counter is consumed before the rate is drawn, so the first two
  // rejections cost no randomness; every verdict is still a rejection.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(inj.on_flow_mod(0).reject) << "mod " << i;
  }
  EXPECT_EQ(inj.stats().rejections, 4u);

  // With the rate at zero only the counted rejections remain.
  FaultModel counted;
  counted.reject_first_n[0] = 2;
  FaultInjector only_counter(counted, 5);
  EXPECT_TRUE(only_counter.on_flow_mod(0).reject);
  EXPECT_TRUE(only_counter.on_flow_mod(0).reject);
  EXPECT_FALSE(only_counter.on_flow_mod(0).reject);
  EXPECT_FALSE(only_counter.on_flow_mod(1).reject);  // other switches unscathed
  EXPECT_EQ(only_counter.stats().rejections, 2u);
}

TEST(FaultInjectorTest, MixedModelReplaysBitIdenticallyUnderFixedSeed) {
  FaultModel m;
  m.drop_rate = 0.1;
  m.per_switch_drop[1] = 0.9;
  m.reject_first_n[2] = 3;
  m.reject_rate = 0.2;
  m.straggler_rate = 0.25;
  m.unresponsive_rate = 0.05;
  m.unresponsive_duration = kSecond;
  m.forced_outage[0] = {kSecond, 2 * kSecond};
  m.clock_drift_stddev = 300;

  const auto drive = [&m](std::uint64_t seed) {
    FaultInjector inj(m, seed);
    std::vector<std::uint64_t> fates;
    for (int i = 0; i < 300; ++i) {
      const SwitchId sw = static_cast<SwitchId>(i % 4);
      const auto d = inj.on_flow_mod(sw);
      fates.push_back((d.drop ? 1u : 0u) | (d.duplicate ? 2u : 0u) |
                      (d.reorder ? 4u : 0u) | (d.reject ? 8u : 0u) |
                      (d.straggler ? 16u : 0u));
      fates.push_back(static_cast<std::uint64_t>(
          inj.shape_arrival(sw, i * 10 * kMillisecond)));
      fates.push_back(static_cast<std::uint64_t>(
          inj.shape_latency(5 * kMillisecond)));
      fates.push_back(static_cast<std::uint64_t>(inj.clock_drift(sw)));
    }
    fates.push_back(inj.stats().injected());
    return fates;
  };
  EXPECT_EQ(drive(77), drive(77));
  EXPECT_NE(drive(77), drive(78));  // and the seed actually matters
}

}  // namespace
}  // namespace chronus::sim
