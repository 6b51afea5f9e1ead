// Tests for the Chronus core: Algorithm 3 (dependency relation sets),
// Algorithm 4 (loop checks) and Algorithm 2 (the greedy scheduler) —
// validated against the paper's running example: the greedy must emit
// exactly the timed sequence v2@t0, v3@t1, {v1,v4}@t2, v5@t3 (Fig. 1) and
// the per-step dependency sets of Fig. 5.
#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/dependency.hpp"
#include "core/greedy_scheduler.hpp"
#include "core/loop_check.hpp"
#include "net/generators.hpp"
#include "timenet/verifier.hpp"

namespace chronus::core {
namespace {

using net::NodeId;
using net::Path;
using timenet::UpdateSchedule;

constexpr NodeId v1 = 0, v2 = 1, v3 = 2, v4 = 3, v5 = 4, v6 = 5;

std::set<NodeId> all_pending() { return {v1, v2, v3, v4, v5}; }

TEST(Config, CurrentNextMixesConfigs) {
  const auto inst = net::fig1_instance();
  EXPECT_EQ(current_next(inst, {}, v2), std::optional<NodeId>(v3));
  EXPECT_EQ(current_next(inst, {v2}, v2), std::optional<NodeId>(v6));
}

TEST(Config, ForwardingPathInitiallyOld) {
  const auto inst = net::fig1_instance();
  const auto p = current_forwarding_path(inst, {});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, inst.p_init());
}

TEST(Config, ForwardingPathAfterUpdates) {
  const auto inst = net::fig1_instance();
  const auto p = current_forwarding_path(inst, {v2});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (Path{v1, v2, v6}));
}

TEST(Config, ForwardingPathDetectsLoopConfig) {
  // Updating only v3 and v4 yields v3->v2 ... but the steady path v1->v2
  // still reaches v6; build a genuinely looping config instead: update v4
  // only (v4->v3 old v3->v4).
  const auto inst = net::fig1_instance();
  const auto p = current_forwarding_path(inst, {v4});
  // Steady path: v1 v2 v3 v4 -> (new) v3: loop.
  EXPECT_FALSE(p.has_value());
}

TEST(Dependency, Fig5AtT0) {
  const auto inst = net::fig1_instance();
  const DependencySet deps = find_dependencies(inst, {}, all_pending());
  EXPECT_FALSE(deps.has_cycle);
  // Relations (v3 -> v1), (v2 -> v4), (v1 -> v5): chains rooted at v2 and
  // v3; only those two heads are eligible (and v3 is vetoed by the loop
  // check, so only v2 updates at t0 — the paper's "we can only update v2").
  const auto heads = deps.heads();
  EXPECT_EQ(std::set<NodeId>(heads.begin(), heads.end()),
            (std::set<NodeId>{v2, v3}));
  // v5 is chained behind v1, which is behind v3.
  bool found_chain = false;
  for (const auto& chain : deps.chains) {
    if (chain.front() == v3) {
      EXPECT_EQ(chain, (std::vector<NodeId>{v3, v1, v5}));
      found_chain = true;
    }
  }
  EXPECT_TRUE(found_chain);
}

TEST(Dependency, Fig5AtT1) {
  // After v2 updates, the dependency set is {(v3 v1 v5), (v4)} (Fig. 5).
  const auto inst = net::fig1_instance();
  const DependencySet deps =
      find_dependencies(inst, {v2}, {v1, v3, v4, v5});
  const auto heads = deps.heads();
  EXPECT_EQ(std::set<NodeId>(heads.begin(), heads.end()),
            (std::set<NodeId>{v3, v4}));
  ASSERT_EQ(deps.chains.size(), 2u);
  for (const auto& chain : deps.chains) {
    if (chain.front() == v3) {
      EXPECT_EQ(chain, (std::vector<NodeId>{v3, v1, v5}));
    } else {
      EXPECT_EQ(chain, (std::vector<NodeId>{v4}));
    }
  }
}

TEST(Dependency, Fig5AtT2) {
  // After v2 and v3: {(v1 v5), (v4)}.
  const auto inst = net::fig1_instance();
  const DependencySet deps = find_dependencies(inst, {v2, v3}, {v1, v4, v5});
  const auto heads = deps.heads();
  EXPECT_EQ(std::set<NodeId>(heads.begin(), heads.end()),
            (std::set<NodeId>{v1, v4}));
}

TEST(Dependency, Fig5AtT3) {
  // Only v5 remains and it is free.
  const auto inst = net::fig1_instance();
  const DependencySet deps =
      find_dependencies(inst, {v1, v2, v3, v4}, {v5});
  ASSERT_EQ(deps.chains.size(), 1u);
  EXPECT_EQ(deps.chains[0], (std::vector<NodeId>{v5}));
}

TEST(Dependency, SlackCapacityRemovesRelations) {
  // With all capacities >= 2d no dependency is needed.
  auto inst = net::fig1_instance();
  for (net::LinkId id = 0; id < inst.graph().link_count(); ++id) {
    inst.mutable_graph().set_capacity(id, net::Capacity{2.0});
  }
  const DependencySet deps = find_dependencies(inst, {}, all_pending());
  EXPECT_EQ(deps.chains.size(), 5u);  // everything is a singleton
  EXPECT_EQ(deps.heads().size(), 5u);
}

TEST(Dependency, ToStringRendersChains) {
  const auto inst = net::fig1_instance();
  const DependencySet deps = find_dependencies(inst, {}, all_pending());
  const std::string s = deps.to_string(inst.graph());
  EXPECT_NE(s.find("v3 -> v1 -> v5"), std::string::npos);
}

TEST(LoopCheck, ExactRejectsV3AtT0) {
  const auto inst = net::fig1_instance();
  UpdateSchedule sched;
  sched.set(v2, timenet::TimePoint{0});
  EXPECT_TRUE(exact_loop_check(inst, sched, v3, timenet::TimePoint{0}));
  EXPECT_FALSE(exact_loop_check(inst, sched, v3, timenet::TimePoint{1}));
}

TEST(LoopCheck, ExactRejectsV4UntilT2) {
  const auto inst = net::fig1_instance();
  UpdateSchedule sched;
  sched.set(v2, timenet::TimePoint{0});
  sched.set(v3, timenet::TimePoint{1});
  EXPECT_TRUE(exact_loop_check(inst, sched, v4, timenet::TimePoint{1}));
  EXPECT_FALSE(exact_loop_check(inst, sched, v4, timenet::TimePoint{2}));
}

TEST(LoopCheck, Algorithm4AgreesOnFig1) {
  const auto inst = net::fig1_instance();
  UpdateSchedule sched;
  sched.set(v2, timenet::TimePoint{0});
  EXPECT_TRUE(algorithm4_loop_check(inst, sched, {v2}, v3, timenet::TimePoint{0}));
  EXPECT_FALSE(algorithm4_loop_check(inst, sched, {v2}, v3, timenet::TimePoint{1}));
  sched.set(v3, timenet::TimePoint{1});
  EXPECT_TRUE(algorithm4_loop_check(inst, sched, {v2, v3}, v4, timenet::TimePoint{1}));
  EXPECT_FALSE(algorithm4_loop_check(inst, sched, {v2, v3}, v4, timenet::TimePoint{2}));
}

TEST(LoopCheck, StructuralUpstreamRule) {
  const auto inst = net::fig1_instance();
  // v3's new next hop v2 lies upstream of v3 on the current (old) path.
  EXPECT_TRUE(structural_loop_check(inst, {}, v3));
  // v2's new next hop v6 is downstream: safe.
  EXPECT_FALSE(structural_loop_check(inst, {}, v2));
}

TEST(Greedy, ReproducesPaperSchedule) {
  const auto inst = net::fig1_instance();
  const ScheduleResult res = greedy_schedule(inst);
  ASSERT_EQ(res.status, ScheduleStatus::kFeasible) << res.message;
  EXPECT_EQ(res.schedule.at(v2), std::optional<timenet::TimePoint>(0));
  EXPECT_EQ(res.schedule.at(v3), std::optional<timenet::TimePoint>(1));
  EXPECT_EQ(res.schedule.at(v1), std::optional<timenet::TimePoint>(2));
  EXPECT_EQ(res.schedule.at(v4), std::optional<timenet::TimePoint>(2));
  EXPECT_EQ(res.schedule.at(v5), std::optional<timenet::TimePoint>(3));
  EXPECT_EQ(res.schedule.step_span(), 4);
}

TEST(Greedy, PaperScheduleVerifiesClean) {
  const auto inst = net::fig1_instance();
  const ScheduleResult res = greedy_schedule(inst);
  const auto report = timenet::verify_transition(inst, res.schedule);
  EXPECT_TRUE(report.ok()) << report.to_string(inst.graph());
}

TEST(Greedy, PureModeMatchesGuardedOnFig1) {
  const auto inst = net::fig1_instance();
  GreedyOptions opts;
  opts.guard_with_verifier = false;
  const ScheduleResult res = greedy_schedule(inst, opts);
  ASSERT_EQ(res.status, ScheduleStatus::kFeasible) << res.message;
  EXPECT_EQ(res.schedule, greedy_schedule(inst).schedule);
  // Theorem 3: the pure dependency+Algorithm-4 schedule is still clean.
  EXPECT_TRUE(timenet::verify_transition(inst, res.schedule).ok());
}

TEST(Greedy, RecordsStepLogs) {
  const auto inst = net::fig1_instance();
  const ScheduleResult res = greedy_schedule(inst);
  ASSERT_EQ(res.steps.size(), 4u);
  EXPECT_EQ(res.steps[0].updated, (std::vector<NodeId>{v2}));
  EXPECT_EQ(res.steps[1].updated, (std::vector<NodeId>{v3}));
  EXPECT_EQ(res.steps[2].updated, (std::vector<NodeId>{v1, v4}));
  EXPECT_EQ(res.steps[3].updated, (std::vector<NodeId>{v5}));
}

TEST(Greedy, NoStepsWhenRequested) {
  const auto inst = net::fig1_instance();
  GreedyOptions opts;
  opts.record_steps = false;
  EXPECT_TRUE(greedy_schedule(inst, opts).steps.empty());
}

TEST(Greedy, NothingToUpdate) {
  net::Graph g = net::line_topology(3, net::Capacity{1.0}, 1);
  const auto inst =
      net::UpdateInstance::from_paths(g, Path{0, 1, 2}, Path{0, 1, 2}, net::Demand{1.0});
  const ScheduleResult res = greedy_schedule(inst);
  EXPECT_EQ(res.status, ScheduleStatus::kFeasible);
  EXPECT_TRUE(res.schedule.empty());
}

TEST(Greedy, SlackCapacityUpdatesFasterThanTight) {
  auto inst = net::fig1_instance();
  for (net::LinkId id = 0; id < inst.graph().link_count(); ++id) {
    inst.mutable_graph().set_capacity(id, net::Capacity{2.0});
  }
  const ScheduleResult res = greedy_schedule(inst);
  ASSERT_EQ(res.status, ScheduleStatus::kFeasible);
  // With slack everywhere only loop-freedom constrains the schedule, so it
  // finishes at least as fast as the tight-capacity schedule.
  EXPECT_LE(res.schedule.step_span(), 4);
  EXPECT_TRUE(timenet::verify_transition(inst, res.schedule).ok());
}

TEST(Greedy, InfeasibleOvertakingInstance) {
  // Old s->a->b->t (slow), new s->b->t (fast) over the tight shared link
  // b->t: the new flow always catches the old drain; no schedule exists.
  net::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, net::Capacity{1.0}, 2);
  g.add_link(1, 2, net::Capacity{1.0}, 2);
  g.add_link(2, 3, net::Capacity{1.0}, 2);
  g.add_link(0, 2, net::Capacity{1.0}, 1);
  const auto inst =
      net::UpdateInstance::from_paths(g, Path{0, 1, 2, 3}, Path{0, 2, 3}, net::Demand{1.0});
  const ScheduleResult res = greedy_schedule(inst);
  EXPECT_EQ(res.status, ScheduleStatus::kInfeasible);
}

TEST(Greedy, ForceCompleteAlwaysFinishes) {
  net::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, net::Capacity{1.0}, 2);
  g.add_link(1, 2, net::Capacity{1.0}, 2);
  g.add_link(2, 3, net::Capacity{1.0}, 2);
  g.add_link(0, 2, net::Capacity{1.0}, 1);
  const auto inst =
      net::UpdateInstance::from_paths(g, Path{0, 1, 2, 3}, Path{0, 2, 3}, net::Demand{1.0});
  GreedyOptions opts;
  opts.force_complete = true;
  const ScheduleResult res = greedy_schedule(inst, opts);
  EXPECT_EQ(res.status, ScheduleStatus::kBestEffort);
  // Every switch that needed an update received a time point.
  for (const NodeId v : inst.switches_to_update()) {
    EXPECT_TRUE(res.schedule.contains(v));
  }
  // The forced schedule congests (that is what Fig. 7 counts).
  EXPECT_FALSE(timenet::verify_transition(inst, res.schedule).ok());
}

TEST(Greedy, WaitsOutDrainWhenNeeded) {
  // Old s->a->b->t, new s->b->t with equal prefix delays and a tight b->t:
  // feasible, but only by letting the old traffic drain first.
  net::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, net::Capacity{1.0}, 1);
  g.add_link(1, 2, net::Capacity{1.0}, 1);
  g.add_link(2, 3, net::Capacity{1.0}, 1);
  g.add_link(0, 2, net::Capacity{1.0}, 2);  // equal total prefix delay
  const auto inst =
      net::UpdateInstance::from_paths(g, Path{0, 1, 2, 3}, Path{0, 2, 3}, net::Demand{1.0});
  const ScheduleResult res = greedy_schedule(inst);
  ASSERT_EQ(res.status, ScheduleStatus::kFeasible) << res.message;
  EXPECT_TRUE(timenet::verify_transition(inst, res.schedule).ok());
}

}  // namespace
}  // namespace chronus::core
