// Tests for update schedules, trajectory tracing and the exact
// transition verifier — validated against the paper's Fig. 1/2 scenarios:
// all-at-once updating loops, the {v1,v2}@t0 plan congests v4->v5, and the
// timed plan v2@t0, v3@t1, {v1,v4}@t2, v5@t3 is congestion- and loop-free.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "net/generators.hpp"
#include "timenet/schedule.hpp"
#include "timenet/trajectory.hpp"
#include "timenet/verifier.hpp"

namespace chronus::timenet {
namespace {

using net::NodeId;
using net::Path;

// Node ids in fig1_instance(): v1=0 .. v6=5.
constexpr NodeId v1 = 0, v2 = 1, v3 = 2, v4 = 3, v5 = 4, v6 = 5;

UpdateSchedule paper_schedule() {
  UpdateSchedule s;
  s.set(v2, timenet::TimePoint{0});
  s.set(v3, timenet::TimePoint{1});
  s.set(v1, timenet::TimePoint{2});
  s.set(v4, timenet::TimePoint{2});
  s.set(v5, timenet::TimePoint{3});
  return s;
}

TEST(UpdateScheduleT, Accessors) {
  UpdateSchedule s = paper_schedule();
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.at(v2), std::optional<TimePoint>(0));
  EXPECT_FALSE(s.at(v6).has_value());
  EXPECT_EQ(s.first_time(), TimePoint{0});
  EXPECT_EQ(s.last_time(), TimePoint{3});
  EXPECT_EQ(s.step_span(), 4);
}

TEST(UpdateScheduleT, ByTimeGroups) {
  const auto groups = paper_schedule().by_time();
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[2].first, TimePoint{2});
  EXPECT_EQ(groups[2].second, (std::vector<NodeId>{v1, v4}));
}

TEST(UpdateScheduleT, EmptySpan) {
  UpdateSchedule s;
  EXPECT_EQ(s.step_span(), 0);
  EXPECT_TRUE(s.empty());
}

TEST(Trajectory, SteadyOldPath) {
  const auto inst = net::fig1_instance();
  const UpdateSchedule none;
  const Trace t = trace_class(inst, none, timenet::TimePoint{10});
  EXPECT_EQ(t.end, TraceEnd::kDelivered);
  ASSERT_EQ(t.hops.size(), 6u);
  EXPECT_EQ(t.hops.back().node, v6);
  EXPECT_EQ(t.hops.back().arrival, TimePoint{15});
}

TEST(Trajectory, FollowsNewRulesAfterUpdate) {
  const auto inst = net::fig1_instance();
  UpdateSchedule s;
  s.set(v2, timenet::TimePoint{0});
  // A class injected at 0 reaches v2 at 1 >= 0: it takes v2 -> v6.
  const Trace t = trace_class(inst, s, timenet::TimePoint{0});
  EXPECT_EQ(t.end, TraceEnd::kDelivered);
  ASSERT_EQ(t.hops.size(), 3u);
  EXPECT_EQ(t.hops[1].node, v2);
  EXPECT_EQ(t.hops[2].node, v6);
}

TEST(Trajectory, OldClassUnaffectedByLaterUpdate) {
  const auto inst = net::fig1_instance();
  UpdateSchedule s;
  s.set(v2, timenet::TimePoint{0});
  // Injected at -2: reaches v2 at -1 < 0, stays on the old path throughout.
  const Trace t = trace_class(inst, s, TimePoint{-2});
  EXPECT_EQ(t.end, TraceEnd::kDelivered);
  EXPECT_EQ(t.hops.size(), 6u);
}

TEST(Trajectory, DetectsLoop) {
  const auto inst = net::fig1_instance();
  UpdateSchedule s;
  for (const NodeId v : {v1, v2, v3, v4, v5}) s.set(v, timenet::TimePoint{0});
  // The class at v3 at t0 (injected -2) goes v3 -> v2, revisits v2, and
  // still exits via v2 -> v6 (the very traffic that congests that link).
  const Trace t = trace_class(inst, s, TimePoint{-2});
  EXPECT_TRUE(t.looped());
  EXPECT_EQ(t.loop_node, v2);
  EXPECT_EQ(t.end, TraceEnd::kDelivered);
  EXPECT_EQ(t.hops.back().node, v6);
}

TEST(Trajectory, BlackholeWhenRuleNotYetInstalled) {
  // New path via m, which has no old rule: a class redirected to m before
  // m's own update blackholes there.
  net::Graph g;
  g.add_nodes(3);  // s=0 m=1 t=2
  g.add_link(0, 2, net::Capacity{1.0}, 1);
  g.add_link(0, 1, net::Capacity{1.0}, 1);
  g.add_link(1, 2, net::Capacity{1.0}, 1);
  const auto inst =
      net::UpdateInstance::from_paths(g, Path{0, 2}, Path{0, 1, 2}, net::Demand{1.0});
  UpdateSchedule s;
  s.set(0, timenet::TimePoint{0});
  s.set(1, timenet::TimePoint{5});  // m's rule arrives too late
  const Trace t = trace_class(inst, s, timenet::TimePoint{0});
  EXPECT_EQ(t.end, TraceEnd::kBlackhole);
  EXPECT_EQ(t.fault_node, 1u);
  // Once m is installed, classes are delivered on the new path.
  const Trace late = trace_class(inst, s, timenet::TimePoint{4});
  EXPECT_EQ(late.end, TraceEnd::kDelivered);
}

TEST(Trajectory, PerPacketFlipSelectsWholePath) {
  const auto inst = net::fig1_instance();
  UpdateSchedule empty;
  FlowView view;
  view.graph = &inst.graph();
  view.instance = &inst;
  view.schedule = &empty;
  view.per_packet_flip = timenet::TimePoint{5};
  const Trace before = trace_class(view, timenet::TimePoint{4});
  const Trace after = trace_class(view, timenet::TimePoint{5});
  ASSERT_EQ(before.hops.size(), 6u);  // old path end to end
  ASSERT_EQ(after.hops.size(), 5u);   // new path end to end
  EXPECT_EQ(after.hops[1].node, v4);
}

TEST(Trajectory, ToStringMentionsOutcome) {
  const auto inst = net::fig1_instance();
  const Trace t = trace_class(inst, UpdateSchedule{}, timenet::TimePoint{0});
  EXPECT_NE(to_string(inst.graph(), t).find("[delivered]"), std::string::npos);
}

TEST(Verifier, SteadyStateIsClean) {
  const auto inst = net::fig1_instance();
  const auto report = verify_transition(inst, UpdateSchedule{});
  EXPECT_TRUE(report.ok()) << report.to_string(inst.graph());
}

TEST(Verifier, PaperScheduleIsClean) {
  const auto inst = net::fig1_instance();
  const auto report = verify_transition(inst, paper_schedule());
  EXPECT_TRUE(report.ok()) << report.to_string(inst.graph());
}

TEST(Verifier, AllAtOnceLoops) {
  const auto inst = net::fig1_instance();
  UpdateSchedule s;
  for (const NodeId v : {v1, v2, v3, v4, v5}) s.set(v, timenet::TimePoint{0});
  const auto report = verify_transition(inst, s);
  EXPECT_FALSE(report.loop_free());
  // Fig. 2(a): the in-flight classes revisit v2 (via v3->v2 and v5->v2)
  // and v3 (via v4->v3).
  std::set<NodeId> looped;
  for (const auto& e : report.loops) looped.insert(e.node);
  EXPECT_TRUE(looped.count(v2));
}

TEST(Verifier, Fig2bCongestsV4V5) {
  const auto inst = net::fig1_instance();
  UpdateSchedule s;
  s.set(v1, timenet::TimePoint{0});
  s.set(v2, timenet::TimePoint{0});
  s.set(v3, timenet::TimePoint{1});
  s.set(v4, timenet::TimePoint{1});
  s.set(v5, timenet::TimePoint{1});
  const auto report = verify_transition(inst, s);
  EXPECT_FALSE(report.ok());
  // The new flow from v1 meets the old in-flight flow: congestion appears
  // (on v4->v3 under this exact schedule, per Fig. 2(b)).
  bool congested = !report.congestion.empty();
  EXPECT_TRUE(congested || !report.loop_free());
  EXPECT_FALSE(report.congestion_free());
}

TEST(Verifier, UpdatingV3WithV2Congests) {
  // §II.A: updating v3 together with v2 at t0 doubles the load on v2->v6.
  const auto inst = net::fig1_instance();
  UpdateSchedule s;
  s.set(v2, timenet::TimePoint{0});
  s.set(v3, timenet::TimePoint{0});
  const auto report = verify_transition(inst, s);
  ASSERT_FALSE(report.congestion_free());
  const auto link = inst.graph().find_link(v2, v6);
  bool on_v2v6 = false;
  for (const auto& c : report.congestion) on_v2v6 |= c.link == *link;
  EXPECT_TRUE(on_v2v6);
}

TEST(Verifier, DelayedV3IsClean) {
  // ... while updating v3 one unit later is safe.
  const auto inst = net::fig1_instance();
  UpdateSchedule s;
  s.set(v2, timenet::TimePoint{0});
  s.set(v3, timenet::TimePoint{1});
  const auto report = verify_transition(inst, s);
  EXPECT_TRUE(report.ok()) << report.to_string(inst.graph());
}

TEST(Verifier, V4AtT1Loops) {
  // §IV: "a forwarding loop will happen if v4 is updated [at t1]".
  const auto inst = net::fig1_instance();
  UpdateSchedule s;
  s.set(v2, timenet::TimePoint{0});
  s.set(v3, timenet::TimePoint{1});
  s.set(v4, timenet::TimePoint{1});
  const auto report = verify_transition(inst, s);
  EXPECT_FALSE(report.loop_free());
}

TEST(Verifier, FirstViolationOnlyStopsEarly) {
  const auto inst = net::fig1_instance();
  UpdateSchedule s;
  for (const NodeId v : {v1, v2, v3, v4, v5}) s.set(v, timenet::TimePoint{0});
  VerifyOptions vo;
  vo.first_violation_only = true;
  const auto report = verify_transition(inst, s, vo);
  EXPECT_FALSE(report.ok());
  EXPECT_LE(report.loops.size() + report.congestion.size(), 1u);
}

TEST(Verifier, LinkLoadsSteadyState) {
  const auto inst = net::fig1_instance();
  const auto loads = link_loads(inst, UpdateSchedule{});
  // Every old-path link carries exactly demand per entry step.
  for (const auto& [key, x] : loads) EXPECT_DOUBLE_EQ(x.value(), 1.0);
  EXPECT_FALSE(loads.empty());
}

TEST(Verifier, ReportToStringListsViolations) {
  const auto inst = net::fig1_instance();
  UpdateSchedule s;
  s.set(v2, timenet::TimePoint{0});
  s.set(v3, timenet::TimePoint{0});
  const auto report = verify_transition(inst, s);
  const std::string str = report.to_string(inst.graph());
  EXPECT_NE(str.find("VIOLATIONS"), std::string::npos);
  EXPECT_NE(str.find("congestion"), std::string::npos);
}

TEST(Verifier, PerPacketFlipDisjointPathsClean) {
  // Two-phase on Fig. 1: per-packet consistency never loops; the only
  // shared switches are the endpoints, so it is also congestion-free.
  const auto inst = net::fig1_instance();
  UpdateSchedule empty;
  FlowTransition ft;
  ft.instance = &inst;
  ft.schedule = &empty;
  ft.per_packet_flip = timenet::TimePoint{0};
  const auto report = verify_transitions({ft});
  EXPECT_TRUE(report.ok()) << report.to_string(inst.graph());
}

TEST(Verifier, PerPacketFlipOvertakingCongests) {
  // Old path s->a->b->t (slow prefix), new path s->b->t (fast prefix):
  // new-tag packets catch up with old-tag packets on the shared tight
  // link b->t, which two-phase cannot prevent.
  net::Graph g;
  g.add_nodes(4);  // s=0 a=1 b=2 t=3
  g.add_link(0, 1, net::Capacity{1.0}, 2);
  g.add_link(1, 2, net::Capacity{1.0}, 2);
  g.add_link(2, 3, net::Capacity{1.0}, 2);
  g.add_link(0, 2, net::Capacity{1.0}, 1);  // faster new prefix
  const auto inst =
      net::UpdateInstance::from_paths(g, Path{0, 1, 2, 3}, Path{0, 2, 3}, net::Demand{1.0});
  UpdateSchedule empty;
  FlowTransition ft;
  ft.instance = &inst;
  ft.schedule = &empty;
  ft.per_packet_flip = timenet::TimePoint{0};
  const auto report = verify_transitions({ft});
  EXPECT_FALSE(report.congestion_free());
  EXPECT_TRUE(report.loop_free());
}

TEST(Verifier, MultiFlowLoadsAddUp) {
  // Two flows over the same tight link congest it even though each flow's
  // own transition is trivially clean.
  net::Graph g;
  g.add_nodes(4);  // s1=0 s2=1 m=2 t=3
  g.add_link(0, 2, net::Capacity{1.0}, 1);
  g.add_link(1, 2, net::Capacity{1.0}, 1);
  g.add_link(2, 3, net::Capacity{1.5}, 1);  // can hold one flow, not two
  const auto f1 =
      net::UpdateInstance::from_paths(g, Path{0, 2, 3}, Path{0, 2, 3}, net::Demand{1.0});
  const auto f2 =
      net::UpdateInstance::from_paths(g, Path{1, 2, 3}, Path{1, 2, 3}, net::Demand{1.0});
  UpdateSchedule s1, s2;
  FlowTransition t1, t2;
  t1.instance = &f1;
  t1.schedule = &s1;
  t2.instance = &f2;
  t2.schedule = &s2;
  const auto report = verify_transitions({t1, t2});
  EXPECT_FALSE(report.congestion_free());
}

/// Every stretch scan() reports on `link`, as (first, last, load).
std::vector<std::tuple<std::int64_t, std::int64_t, double>> stretches(
    LoadLedger& ledger, net::LinkId link, TimePoint from, TimePoint to) {
  std::vector<std::tuple<std::int64_t, std::int64_t, double>> out;
  ledger.scan(link, from, to, [&](TimePoint a, TimePoint b, net::Demand x) {
    out.emplace_back(a.count(), b.count(), x.value());
    return true;
  });
  return out;
}

TEST(LoadLedger, PiecesSplitMergeAndFoldFlowsInOrder) {
  LoadLedger ledger;
  const std::vector<net::Demand> demands{net::Demand{0.5}, net::Demand{2.0}};
  ledger.reset(2, demands);
  // Consecutive unit classes coalesce; a removal splits, its undo merges.
  for (std::int64_t e = 3; e <= 6; ++e) {
    ledger.add(0, 0, TimePoint{e}, TimePoint{e}, 1);
  }
  EXPECT_EQ(ledger.pieces(), 1u);
  ledger.add(0, 0, TimePoint{4}, TimePoint{4}, -1);
  EXPECT_EQ(ledger.pieces(), 2u);
  ledger.add(0, 0, TimePoint{4}, TimePoint{4}, 1);
  EXPECT_EQ(ledger.pieces(), 1u);
  // An open head and tail on the other flow; only entered steps report.
  ledger.add(0, 1, LoadLedger::kBefore, TimePoint{4}, 1);
  ledger.add(0, 1, TimePoint{9}, LoadLedger::kAfter, 1);
  using S = std::tuple<std::int64_t, std::int64_t, double>;
  EXPECT_EQ(stretches(ledger, 0, TimePoint{2}, TimePoint{10}),
            (std::vector<S>{{2, 2, 2.0}, {3, 4, 2.5}, {5, 6, 0.5},
                            {9, 10, 2.0}}));
  // A count of two folds one addition per class: 0.5 + 0.5 + 2.0.
  ledger.add(0, 0, TimePoint{3}, TimePoint{3}, 1);
  EXPECT_EQ(stretches(ledger, 0, TimePoint{3}, TimePoint{3}),
            (std::vector<S>{{3, 3, 3.0}}));
  EXPECT_TRUE(stretches(ledger, 1, LoadLedger::kBefore, LoadLedger::kAfter)
                  .empty());
  // Removing everything leaves no piece; reset empties the ledger.
  ledger.add(0, 0, TimePoint{3}, TimePoint{3}, -1);
  ledger.add(0, 0, TimePoint{3}, TimePoint{6}, -1);
  ledger.add(0, 1, LoadLedger::kBefore, TimePoint{4}, -1);
  EXPECT_EQ(ledger.pieces(), 1u);
  ledger.reset(2, demands);
  EXPECT_EQ(ledger.pieces(), 0u);
  EXPECT_TRUE(stretches(ledger, 0, LoadLedger::kBefore, LoadLedger::kAfter)
                  .empty());
}

TEST(LoadLedger, KeepsRowsOnlyForLoadedLinks) {
  LoadLedger ledger;
  const std::vector<net::Demand> demands{net::Demand{1.0}, net::Demand{2.0}};
  ledger.reset(8, demands);
  EXPECT_TRUE(ledger.touched().empty());
  ledger.add(6, 1, TimePoint{2}, TimePoint{3}, 1);
  ledger.add(2, 0, LoadLedger::kBefore, TimePoint{0}, 1);
  ledger.add(6, 0, TimePoint{3}, TimePoint{3}, 1);
  const auto touched = [&ledger] {
    return std::vector<net::LinkId>(ledger.touched().begin(),
                                    ledger.touched().end());
  };
  // The links given pieces, in the order of their first add.
  EXPECT_EQ(touched(), (std::vector<net::LinkId>{6, 2}));
  using S = std::tuple<std::int64_t, std::int64_t, double>;
  EXPECT_EQ(stretches(ledger, 6, TimePoint{0}, TimePoint{9}),
            (std::vector<S>{{2, 2, 2.0}, {3, 3, 3.0}}));
  for (const net::LinkId link : {0u, 1u, 3u, 4u, 5u, 7u}) {
    EXPECT_TRUE(
        stretches(ledger, link, LoadLedger::kBefore, LoadLedger::kAfter)
            .empty())
        << "link " << link;
  }
  // A removal back to zero keeps the row but reports nothing.
  ledger.add(2, 0, LoadLedger::kBefore, TimePoint{0}, -1);
  EXPECT_EQ(touched(), (std::vector<net::LinkId>{6, 2}));
  EXPECT_TRUE(stretches(ledger, 2, LoadLedger::kBefore, LoadLedger::kAfter)
                  .empty());
  EXPECT_EQ(ledger.pieces(), 2u);
  // Reset forgets every row, whatever the next link count.
  ledger.reset(4, demands);
  EXPECT_TRUE(ledger.touched().empty());
  ledger.add(3, 1, TimePoint{5}, TimePoint{5}, 1);
  EXPECT_EQ(touched(), (std::vector<net::LinkId>{3}));
  ledger.reset(8, std::vector<net::Demand>{net::Demand{0.5}});
  EXPECT_TRUE(ledger.touched().empty());
  for (const net::LinkId link : {2u, 3u, 6u}) {
    EXPECT_TRUE(
        stretches(ledger, link, LoadLedger::kBefore, LoadLedger::kAfter)
            .empty())
        << "link " << link;
  }
  ledger.add(6, 0, TimePoint{1}, TimePoint{1}, 1);
  EXPECT_EQ(stretches(ledger, 6, TimePoint{0}, TimePoint{9}),
            (std::vector<S>{{1, 1, 0.5}}));
}

}  // namespace
}  // namespace chronus::timenet
