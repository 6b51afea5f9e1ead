// Tests for the exact solvers: the MUTP branch-and-bound (OPT) and the
// order-replacement round minimization (OR planner), including agreement
// with the greedy scheduler and the exact verifier.
#include <gtest/gtest.h>

#include "core/greedy_scheduler.hpp"
#include "net/generators.hpp"
#include "opt/mutp_bnb.hpp"
#include "opt/order_bnb.hpp"
#include "timenet/verifier.hpp"

namespace chronus::opt {
namespace {

using net::NodeId;
using net::Path;

constexpr NodeId v1 = 0, v2 = 1, v3 = 2, v4 = 3, v5 = 4;

net::UpdateInstance overtaking_instance() {
  net::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, net::Capacity{1.0}, 2);
  g.add_link(1, 2, net::Capacity{1.0}, 2);
  g.add_link(2, 3, net::Capacity{1.0}, 2);
  g.add_link(0, 2, net::Capacity{1.0}, 1);
  return net::UpdateInstance::from_paths(g, Path{0, 1, 2, 3}, Path{0, 2, 3},
                                         net::Demand{1.0});
}

TEST(Mutp, Fig1OptimalIsFourSteps) {
  const auto inst = net::fig1_instance();
  const MutpResult res = solve_mutp(inst);
  ASSERT_TRUE(res.feasible()) << res.message;
  EXPECT_TRUE(res.proved_optimal);
  EXPECT_EQ(res.makespan, 4);
  EXPECT_TRUE(timenet::verify_transition(inst, res.schedule).ok());
}

TEST(Mutp, NeverWorseThanGreedy) {
  util::Rng rng(301);
  net::RandomInstanceOptions opt;
  opt.n = 8;
  for (int i = 0; i < 20; ++i) {
    const auto inst = net::random_instance(opt, rng);
    const auto greedy = core::greedy_schedule(inst);
    const MutpResult res = solve_mutp(inst);
    if (greedy.feasible()) {
      ASSERT_TRUE(res.feasible());
      EXPECT_LE(res.makespan, greedy.schedule.step_span());
    }
  }
}

TEST(Mutp, SchedulesVerifyClean) {
  util::Rng rng(302);
  net::RandomInstanceOptions opt;
  opt.n = 7;
  for (int i = 0; i < 20; ++i) {
    const auto inst = net::random_instance(opt, rng);
    const MutpResult res = solve_mutp(inst);
    if (res.feasible()) {
      EXPECT_TRUE(timenet::verify_transition(inst, res.schedule).ok());
    }
  }
}

TEST(Mutp, DetectsInfeasibility) {
  const MutpResult res = solve_mutp(overtaking_instance());
  EXPECT_FALSE(res.feasible());
  EXPECT_FALSE(res.timed_out);
}

TEST(Mutp, ForceCompleteOnInfeasible) {
  MutpOptions opts;
  opts.force_complete = true;
  const auto inst = overtaking_instance();
  const MutpResult res = solve_mutp(inst, opts);
  EXPECT_EQ(res.status, core::ScheduleStatus::kBestEffort);
  for (const NodeId v : inst.switches_to_update()) {
    EXPECT_TRUE(res.schedule.contains(v));
  }
}

TEST(Mutp, NothingToUpdate) {
  net::Graph g = net::line_topology(3, net::Capacity{1.0}, 1);
  const auto inst =
      net::UpdateInstance::from_paths(g, Path{0, 1, 2}, Path{0, 1, 2}, net::Demand{1.0});
  const MutpResult res = solve_mutp(inst);
  EXPECT_TRUE(res.feasible());
  EXPECT_EQ(res.makespan, 0);
  EXPECT_TRUE(res.proved_optimal);
}

TEST(Mutp, SlackCapacityNeverSlowsTheOptimum) {
  // On Fig. 1 the binding constraints are the forwarding loops, not the
  // capacities, so the optimum stays at 4 steps even with slack links —
  // but it can never get worse.
  auto inst = net::fig1_instance();
  for (net::LinkId id = 0; id < inst.graph().link_count(); ++id) {
    inst.mutable_graph().set_capacity(id, net::Capacity{2.0});
  }
  const MutpResult res = solve_mutp(inst);
  ASSERT_TRUE(res.feasible());
  EXPECT_TRUE(res.proved_optimal);
  EXPECT_EQ(res.makespan, 4);
  EXPECT_TRUE(timenet::verify_transition(inst, res.schedule).ok());
}

TEST(Mutp, TimeoutReturnsIncumbent) {
  util::Rng rng(303);
  net::RandomInstanceOptions opt;
  opt.n = 12;
  const auto inst = net::random_instance(opt, rng);
  MutpOptions mo;
  mo.timeout_sec = 1e-6;  // expire immediately
  const MutpResult res = solve_mutp(inst, mo);
  // The greedy incumbent (if feasible) must survive the timeout.
  const auto greedy = core::greedy_schedule(inst);
  if (greedy.feasible()) {
    EXPECT_TRUE(res.feasible());
    EXPECT_FALSE(res.proved_optimal);
  }
}

TEST(OrderSafety, SingleSwitchCases) {
  const auto inst = net::fig1_instance();
  EXPECT_TRUE(round_is_loop_safe(inst, {}, {v1}));
  EXPECT_TRUE(round_is_loop_safe(inst, {}, {v2}));
  EXPECT_FALSE(round_is_loop_safe(inst, {}, {v3}));  // v2<->v3 cycle
  EXPECT_FALSE(round_is_loop_safe(inst, {}, {v4}));  // v3<->v4 cycle
  EXPECT_FALSE(round_is_loop_safe(inst, {}, {v5}));  // v5->v2->..->v5
}

TEST(OrderSafety, RoundCompositionMatters) {
  const auto inst = net::fig1_instance();
  EXPECT_TRUE(round_is_loop_safe(inst, {}, {v1, v2}));
  // After {v1, v2}, v3 and v5 become safe, v4 still cycles with v3.
  EXPECT_TRUE(round_is_loop_safe(inst, {v1, v2}, {v3, v5}));
  EXPECT_FALSE(round_is_loop_safe(inst, {v1, v2}, {v3, v4}));
  EXPECT_TRUE(round_is_loop_safe(inst, {v1, v2, v3, v5}, {v4}));
}

TEST(OrderBnb, Fig1NeedsThreeRounds) {
  const auto inst = net::fig1_instance();
  const OrderResult res = solve_order_replacement(inst);
  ASSERT_TRUE(res.feasible) << res.message;
  EXPECT_TRUE(res.proved_optimal);
  EXPECT_EQ(res.round_count(), 3u);
  // Round sequence must be executable: each round safe given its prefix.
  std::set<NodeId> updated;
  for (const auto& round : res.rounds) {
    EXPECT_TRUE(round_is_loop_safe(
        inst, updated, std::set<NodeId>(round.begin(), round.end())));
    updated.insert(round.begin(), round.end());
  }
  EXPECT_EQ(updated.size(), 5u);
}

TEST(OrderBnb, GreedyFallbackAboveExactLimit) {
  const auto inst = net::fig1_instance();
  OrderOptions opts;
  opts.exact_limit = 2;  // force the fallback
  const OrderResult res = solve_order_replacement(inst, opts);
  EXPECT_TRUE(res.feasible);
  EXPECT_FALSE(res.proved_optimal);
  EXPECT_GE(res.round_count(), 3u);
}

TEST(OrderBnb, RandomInstancesAlwaysFeasible) {
  // Reverse final-path order one switch per round is always strongly
  // loop-free, so the planner must always find a sequence.
  util::Rng rng(304);
  net::RandomInstanceOptions opt;
  opt.n = 10;
  for (int i = 0; i < 20; ++i) {
    const auto inst = net::random_instance(opt, rng);
    const OrderResult res = solve_order_replacement(inst);
    EXPECT_TRUE(res.feasible) << res.message;
    std::set<NodeId> updated;
    std::size_t total = 0;
    for (const auto& round : res.rounds) {
      EXPECT_TRUE(round_is_loop_safe(
          inst, updated, std::set<NodeId>(round.begin(), round.end())));
      updated.insert(round.begin(), round.end());
      total += round.size();
    }
    EXPECT_EQ(total, inst.switches_to_update().size());
  }
}

TEST(OrderBnb, NothingToUpdate) {
  net::Graph g = net::line_topology(3, net::Capacity{1.0}, 1);
  const auto inst =
      net::UpdateInstance::from_paths(g, Path{0, 1, 2}, Path{0, 1, 2}, net::Demand{1.0});
  const OrderResult res = solve_order_replacement(inst);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.round_count(), 0u);
}

TEST(OrderBnb, MatchesBruteForceOnSmallInstances) {
  // Exhaustive check of minimality on random 6-switch instances: no
  // partition into fewer rounds can be safe.
  util::Rng rng(305);
  net::RandomInstanceOptions opt;
  opt.n = 6;
  for (int i = 0; i < 10; ++i) {
    const auto inst = net::random_instance(opt, rng);
    const OrderResult res = solve_order_replacement(inst);
    ASSERT_TRUE(res.feasible);
    if (res.round_count() <= 1) continue;
    // Brute force: try all ways to update everything in one round fewer by
    // checking whether a single round covering everything is safe (the
    // only way to beat 2 rounds) — for deeper counts rely on the B&B's
    // own exhaustiveness, checked via proved_optimal.
    EXPECT_TRUE(res.proved_optimal);
    const auto all = inst.switches_to_update();
    if (res.round_count() == 2) {
      EXPECT_FALSE(round_is_loop_safe(
          inst, {}, std::set<NodeId>(all.begin(), all.end())));
    }
  }
}

}  // namespace
}  // namespace chronus::opt
