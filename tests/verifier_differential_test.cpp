// Differential tests: the flat verifier, link_loads() and trace_class()
// against the map-based oracle (tests/verifier_oracle.hpp). Random
// instances (6-40 switches, delays 1-3, tight and slack capacities) get
// random schedules — partial ones that blackhole, colliding ones that
// loop and congest — per-packet flips and two-flow transitions. Reports
// must agree field by field (event order, exact loads, `aborted`), the
// verifier.* counters must read what the oracle counted, and every class
// must trace hop by hop as the oracle traces it. The one exception is
// verifier.classes_traced: the library traces only the classes between a
// flow's first and last update and adds the runs before and after in
// closed form, so the count is that span, never more than the oracle's.
#include <gtest/gtest.h>

#include <string>

#include "net/generators.hpp"
#include "obs/metrics.hpp"
#include "timenet/trajectory.hpp"
#include "timenet/verifier.hpp"
#include "verifier_oracle.hpp"

namespace chronus::timenet {
namespace {

void expect_same_report(const TransitionReport& got,
                        const TransitionReport& want) {
  ASSERT_EQ(got.congestion.size(), want.congestion.size());
  for (std::size_t i = 0; i < want.congestion.size(); ++i) {
    EXPECT_EQ(got.congestion[i].link, want.congestion[i].link) << "event " << i;
    EXPECT_EQ(got.congestion[i].enter_time, want.congestion[i].enter_time)
        << "event " << i;
    // Bit-exact: the loads are summed in the same order.
    EXPECT_EQ(got.congestion[i].load.value(), want.congestion[i].load.value())
        << "event " << i;
    EXPECT_EQ(got.congestion[i].capacity, want.congestion[i].capacity);
  }
  ASSERT_EQ(got.loops.size(), want.loops.size());
  for (std::size_t i = 0; i < want.loops.size(); ++i) {
    EXPECT_EQ(got.loops[i].injected, want.loops[i].injected);
    EXPECT_EQ(got.loops[i].node, want.loops[i].node);
  }
  ASSERT_EQ(got.blackholes.size(), want.blackholes.size());
  for (std::size_t i = 0; i < want.blackholes.size(); ++i) {
    EXPECT_EQ(got.blackholes[i].injected, want.blackholes[i].injected);
    EXPECT_EQ(got.blackholes[i].node, want.blackholes[i].node);
  }
  EXPECT_EQ(got.aborted, want.aborted);
}

std::uint64_t counter(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Classes the library traces one by one: per flow, those injected in
/// [first update - old-path span, last update), or none in per-packet
/// mode, clamped to the traced window. Schedule entries for switches
/// outside the graph are ignored, as the rule table ignores them.
std::uint64_t expected_classes_traced(const std::vector<FlowTransition>& flows,
                                      const VerifyOptions& vo) {
  const net::Graph& g = flows.front().instance->graph();
  oracle::Window w = oracle::make_window(g, flows);
  w.trace_begin -= vo.window_slack;
  w.trace_end += vo.window_slack;
  std::uint64_t traced = 0;
  for (const FlowTransition& f : flows) {
    if (f.per_packet_flip) continue;
    std::optional<TimePoint> first;
    std::optional<TimePoint> last;
    for (const auto& [v, t] : f.schedule->entries()) {
      if (v >= g.node_count()) continue;
      if (!first || t < *first) first = t;
      if (!last || t > *last) last = t;
    }
    if (!first) continue;
    const Trace old_path =
        oracle::trace_class(*f.instance, UpdateSchedule{}, TimePoint{0});
    const std::int64_t span = old_path.hops.back().arrival - old_path.injected;
    const TimePoint lo = std::max(*first - span, w.trace_begin);
    const TimePoint hi = std::min(*last, w.trace_end + 1);
    if (hi > lo) traced += static_cast<std::uint64_t>(hi - lo);
  }
  return traced;
}

/// Runs both verifiers on `flows` and compares reports and counters.
/// Returns the report so callers can assert the case was not vacuous.
TransitionReport check(const std::vector<FlowTransition>& flows,
                       const VerifyOptions& vo) {
  oracle::Tally tally;
  const TransitionReport want = oracle::verify_transitions(flows, vo, &tally);
  obs::MetricsRegistry reg;
  TransitionReport got;
  {
    const obs::ScopedMetrics scope(reg);
    got = verify_transitions(flows, vo);
  }
  expect_same_report(got, want);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(counter(snap, "verifier.calls"), 1u);
  // A pass cut short (deadline, or a first loop / blackhole) traced less.
  const bool cut_short =
      want.aborted || (vo.first_violation_only &&
                       !(want.loop_free() && want.blackhole_free()));
  if (!cut_short) {
    EXPECT_EQ(counter(snap, "verifier.classes_traced"),
              expected_classes_traced(flows, vo));
  }
  EXPECT_LE(counter(snap, "verifier.classes_traced"), tally.classes_traced);
  EXPECT_EQ(counter(snap, "verifier.links_checked"), tally.links_checked);
  EXPECT_EQ(counter(snap, "verifier.violations"), tally.violations);
  EXPECT_EQ(counter(snap, "verifier.aborted"), tally.aborted ? 1u : 0u);
  return got;
}

void check_traces(const FlowView& view, TimePoint from, TimePoint to) {
  for (TimePoint tau = from; tau <= to; ++tau) {
    const Trace got = trace_class(view, tau);
    const Trace want = oracle::trace_class(view, tau);
    ASSERT_EQ(got.hops.size(), want.hops.size()) << "class " << tau;
    for (std::size_t i = 0; i < want.hops.size(); ++i) {
      ASSERT_EQ(got.hops[i].node, want.hops[i].node) << "class " << tau;
      ASSERT_EQ(got.hops[i].arrival, want.hops[i].arrival) << "class " << tau;
    }
    ASSERT_EQ(got.injected, want.injected);
    ASSERT_EQ(got.end, want.end) << "class " << tau;
    ASSERT_EQ(got.fault_node, want.fault_node) << "class " << tau;
    ASSERT_EQ(got.loop_node, want.loop_node) << "class " << tau;
  }
}

net::UpdateInstance random_case(util::Rng& rng) {
  net::RandomInstanceOptions opt;
  opt.n = 6 + rng.index(35);                     // 6..40 switches
  opt.slack_prob = rng.chance(0.5) ? 0.0 : 0.8;  // tight or slack links
  opt.delay_min = 1;
  opt.delay_max = 3;
  return net::random_instance(opt, rng);
}

/// Random times in [0, 5] for most switches to update: colliding times
/// loop and congest, and a switch left out keeps its old rule forever,
/// which blackholes classes at a switch that only the new path uses.
UpdateSchedule random_schedule(const net::UpdateInstance& inst,
                               util::Rng& rng) {
  UpdateSchedule sched;
  for (const net::NodeId v : inst.switches_to_update()) {
    if (rng.chance(0.85)) sched.set(v, TimePoint{rng.uniform_int(0, 5)});
  }
  return sched;
}

FlowView view_of(const net::UpdateInstance& inst, const UpdateSchedule& sched,
                 std::optional<TimePoint> flip = std::nullopt) {
  FlowView view;
  view.graph = &inst.graph();
  view.instance = &inst;
  view.schedule = &sched;
  view.per_packet_flip = flip;
  return view;
}

class VerifierVsOracle : public ::testing::TestWithParam<int> {};

TEST_P(VerifierVsOracle, SingleFlowReportsAndLoadsMatch) {
  util::Rng rng(1100 + static_cast<std::uint64_t>(GetParam()));
  std::size_t violations = 0;
  for (int rep = 0; rep < 6; ++rep) {
    const auto inst = random_case(rng);
    const UpdateSchedule sched = random_schedule(inst, rng);
    for (const bool first_only : {false, true}) {
      VerifyOptions vo;
      vo.first_violation_only = first_only;
      const TransitionReport rep_got = check({{&inst, &sched, {}}}, vo);
      violations += rep_got.congestion.size() + rep_got.loops.size() +
                    rep_got.blackholes.size();
    }
    EXPECT_EQ(link_loads(inst, sched), oracle::link_loads(inst, sched));
    const std::int64_t d =
        static_cast<std::int64_t>(inst.graph().node_count() + 2) *
        inst.graph().max_delay();
    check_traces(view_of(inst, sched), TimePoint{-d}, TimePoint{6});
  }
  EXPECT_GT(violations, 0u) << "no case exercised a violation";
}

TEST_P(VerifierVsOracle, PerPacketFlipReportsMatch) {
  util::Rng rng(1200 + static_cast<std::uint64_t>(GetParam()));
  for (int rep = 0; rep < 6; ++rep) {
    const auto inst = random_case(rng);
    const UpdateSchedule sched = random_schedule(inst, rng);
    const TimePoint flip{rng.uniform_int(0, 5)};
    for (const bool first_only : {false, true}) {
      VerifyOptions vo;
      vo.first_violation_only = first_only;
      check({{&inst, &sched, flip}}, vo);
    }
    check_traces(view_of(inst, sched, flip), flip - 4, flip + 4);
  }
}

TEST_P(VerifierVsOracle, TwoFlowReportsMatch) {
  util::Rng rng(1300 + static_cast<std::uint64_t>(GetParam()));
  int compared = 0;
  for (int rep = 0; rep < 8; ++rep) {
    const auto base = random_case(rng);
    // A sibling flow over the same graph in the reverse direction of the
    // update (p_fin -> p_init), so the two flows cross on shared links.
    if (!net::path_exists_in(base.graph(), base.p_fin())) continue;
    const auto sibling = net::UpdateInstance::from_paths(
        base.graph(), base.p_fin(), base.p_init(), base.demand());
    const UpdateSchedule s0 = random_schedule(base, rng);
    const UpdateSchedule s1 = random_schedule(sibling, rng);
    std::optional<TimePoint> flip;
    if (rng.chance(0.3)) flip = TimePoint{rng.uniform_int(0, 5)};
    for (const bool first_only : {false, true}) {
      VerifyOptions vo;
      vo.first_violation_only = first_only;
      check({{&base, &s0, {}}, {&sibling, &s1, flip}}, vo);
    }
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

// The edges of the closed-form runs: a wider traced window, schedule
// entries that move the window without moving a rule, a flow that never
// updates beside one that does, and flips outside the schedule's span.
TEST_P(VerifierVsOracle, ClosedFormRunEdgesMatch) {
  util::Rng rng(1800 + static_cast<std::uint64_t>(GetParam()));
  for (int rep = 0; rep < 6; ++rep) {
    const auto inst = random_case(rng);
    const UpdateSchedule sched = random_schedule(inst, rng);
    const auto n = static_cast<net::NodeId>(inst.graph().node_count());

    // Entries for switches outside the graph and for switches whose rule
    // never changes, at times outside [0, 5].
    UpdateSchedule stray = sched;
    stray.set(n + 3, TimePoint{rng.uniform_int(-30, -10)});
    stray.set(n + 7, TimePoint{rng.uniform_int(12, 30)});
    for (net::NodeId v = 0; v < n; ++v) {
      if (!inst.needs_update(v) && rng.chance(0.2)) {
        stray.set(v, TimePoint{rng.uniform_int(-8, 14)});
      }
    }
    // Flips well before and well after the schedule's span.
    const TimePoint early{rng.uniform_int(-20, -1)};
    const TimePoint late{rng.uniform_int(6, 25)};

    for (const bool first_only : {false, true}) {
      VerifyOptions vo;
      vo.first_violation_only = first_only;
      check({{&inst, &stray, late}}, vo);
      vo.window_slack = static_cast<int>(rng.uniform_int(1, 40));
      check({{&inst, &sched, {}}}, vo);
      check({{&inst, &stray, {}}}, vo);
      check({{&inst, &sched, early}}, vo);
      check({{&inst, &sched, late}}, vo);
    }
    EXPECT_EQ(link_loads(inst, stray), oracle::link_loads(inst, stray));

    // Two flows, one of which never updates: its whole window is one run.
    if (!net::path_exists_in(inst.graph(), inst.p_fin())) continue;
    const auto sibling = net::UpdateInstance::from_paths(
        inst.graph(), inst.p_fin(), inst.p_init(), inst.demand());
    const UpdateSchedule none;
    for (const bool first_only : {false, true}) {
      VerifyOptions vo;
      vo.first_violation_only = first_only;
      check({{&inst, &sched, {}}, {&sibling, &none, {}}}, vo);
      check({{&sibling, &none, {}}, {&inst, &stray, {}}}, vo);
      vo.window_slack = 5;
      check({{&inst, &none, {}}, {&sibling, &none, {}}}, vo);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierVsOracle, ::testing::Range(0, 8));

TEST(VerifierVsOracleT, GreedyPlansCheckEveryLinkAlike) {
  // Clean plans report nothing, so the congestion scan's links_checked
  // count is the whole comparison: every entered (link, step) in the
  // evaluation window, in the same order.
  util::Rng rng(1400);
  for (int rep = 0; rep < 6; ++rep) {
    const auto inst = random_case(rng);
    UpdateSchedule sched;
    TimePoint t{};
    for (const net::NodeId v : inst.switches_to_update()) {
      sched.set(v, t);
      t += inst.graph().max_delay() * 2;
    }
    check({{&inst, &sched, {}}}, VerifyOptions{});
  }
}

TEST(VerifierVsOracleT, ExpiredDeadlineAbortsAtTheSameClass) {
  util::Rng rng(1500);
  const auto inst = random_case(rng);
  const UpdateSchedule sched = random_schedule(inst, rng);
  VerifyOptions vo;
  vo.deadline_sec = 1e-9;  // expired by the first check (every 256 classes)
  const TransitionReport rep = check({{&inst, &sched, {}}}, vo);
  EXPECT_TRUE(rep.aborted);
}

}  // namespace
}  // namespace chronus::timenet
