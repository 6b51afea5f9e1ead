// Cross-cutting property tests: invariants that must hold across random
// instances, validating the model (shift/scaling invariance), the safety
// characterizations (union graph vs exhaustive interleavings), and the
// relationships between the schedulers.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "baselines/order_replacement.hpp"
#include "core/feasibility_tree.hpp"
#include "core/greedy_scheduler.hpp"
#include "core/heuristics.hpp"
#include "net/generators.hpp"
#include "net/topologies.hpp"
#include "obs/metrics.hpp"
#include "opt/mutp_bnb.hpp"
#include "opt/order_bnb.hpp"
#include "timenet/verifier.hpp"

namespace chronus {
namespace {

using net::NodeId;
using timenet::TimePoint;
using timenet::UpdateSchedule;

class PropertySweep : public ::testing::TestWithParam<int> {
 protected:
  util::Rng rng_{800 + static_cast<std::uint64_t>(GetParam())};
};

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep, ::testing::Range(0, 5));

TEST_P(PropertySweep, VerifierIsShiftInvariant) {
  // The initial steady state extends infinitely into the past, so shifting
  // every update time by a constant must preserve the verdict exactly.
  net::RandomInstanceOptions opt;
  opt.n = 8;
  for (int i = 0; i < 5; ++i) {
    const auto inst = net::random_instance(opt, rng_);
    UpdateSchedule sched;
    TimePoint t{};
    for (const NodeId v : inst.switches_to_update()) {
      sched.set(v, t);
      t += rng_.uniform_int(0, 2);
    }
    const auto base = timenet::verify_transition(inst, sched);
    for (const std::int64_t shift : {-7, 13, 1000}) {
      UpdateSchedule shifted;
      for (const auto& [v, tv] : sched.entries()) shifted.set(v, tv + shift);
      const auto moved = timenet::verify_transition(inst, shifted);
      EXPECT_EQ(base.ok(), moved.ok());
      EXPECT_EQ(base.congested_link_count(), moved.congested_link_count());
      EXPECT_EQ(base.loops.size(), moved.loops.size());
    }
  }
}

TEST_P(PropertySweep, VerdictInvariantUnderUniformScaling) {
  // Multiplying demand and every capacity by the same factor changes
  // nothing: the model is homogeneous in rate units.
  net::RandomInstanceOptions opt;
  opt.n = 8;
  for (int i = 0; i < 5; ++i) {
    auto inst = net::random_instance(opt, rng_);
    core::GreedyOptions gopts;
    gopts.record_steps = false;
    const auto plan = core::greedy_schedule(inst, gopts);

    net::Graph scaled = inst.graph();
    for (net::LinkId id = 0; id < scaled.link_count(); ++id) {
      scaled.set_capacity(id, scaled.link(id).capacity * 250.0);
    }
    auto big = net::UpdateInstance::from_paths(scaled, inst.p_init(),
                                               inst.p_fin(), net::Demand{250.0});
    const auto plan_big = core::greedy_schedule(big, gopts);
    EXPECT_EQ(plan.status, plan_big.status);
    if (plan.feasible()) {
      EXPECT_EQ(plan.schedule, plan_big.schedule);
    }
  }
}

TEST_P(PropertySweep, GreedyFeasibleImpliesTreeFeasible) {
  // tree_feasibility_check falls back to the greedy, so it can never claim
  // less than the greedy proves.
  net::RandomInstanceOptions opt;
  opt.n = 10;
  for (int i = 0; i < 5; ++i) {
    const auto inst = net::random_instance(opt, rng_);
    core::GreedyOptions gopts;
    gopts.record_steps = false;
    if (core::greedy_schedule(inst, gopts).feasible()) {
      EXPECT_TRUE(core::tree_feasibility_check(inst).feasible);
    }
  }
}

TEST_P(PropertySweep, UnionGraphMatchesExhaustiveInterleavings) {
  // round_is_loop_safe(U, S) must equal: "every subset X of S, applied on
  // top of U, yields an acyclic forwarding graph" (all reachable
  // intermediate configurations of an asynchronous round).
  net::RandomInstanceOptions opt;
  opt.n = 7;
  for (int i = 0; i < 5; ++i) {
    const auto inst = net::random_instance(opt, rng_);
    auto to_update = inst.switches_to_update();
    if (to_update.size() > 6) to_update.resize(6);
    const std::set<NodeId> round(to_update.begin(), to_update.end());

    const auto acyclic_config = [&](const std::set<NodeId>& updated) {
      // Follow next-hops from every node; a cycle exists iff some walk
      // revisits a node before reaching a sink.
      for (const NodeId start : inst.touched_nodes()) {
        std::set<NodeId> seen;
        NodeId at = start;
        while (true) {
          if (!seen.insert(at).second) return false;
          const auto next = updated.count(at) ? inst.new_next(at)
                                              : inst.old_next(at);
          if (!next) break;
          at = *next;
        }
      }
      return true;
    };

    bool exhaustive_safe = true;
    const auto items = std::vector<NodeId>(round.begin(), round.end());
    for (std::size_t mask = 0; mask < (1u << items.size()); ++mask) {
      std::set<NodeId> updated;
      for (std::size_t b = 0; b < items.size(); ++b) {
        if (mask & (1u << b)) updated.insert(items[b]);
      }
      if (!acyclic_config(updated)) {
        exhaustive_safe = false;
        break;
      }
    }
    EXPECT_EQ(opt::round_is_loop_safe(inst, {}, round), exhaustive_safe)
        << "instance " << i;
  }
}

TEST_P(PropertySweep, TwoPhaseNeverLoopsOrBlackholes) {
  // Per-packet consistency: every class follows one whole (simple) path.
  net::RandomInstanceOptions opt;
  opt.n = 10;
  for (int i = 0; i < 5; ++i) {
    const auto inst = net::random_instance(opt, rng_);
    UpdateSchedule empty;
    timenet::FlowTransition ft;
    ft.instance = &inst;
    ft.schedule = &empty;
    ft.per_packet_flip = timenet::TimePoint{rng_.uniform_int(-5, 5)};
    const auto report = timenet::verify_transitions({ft});
    EXPECT_TRUE(report.loop_free());
    EXPECT_TRUE(report.blackhole_free());
  }
}

TEST_P(PropertySweep, DijkstraMatchesBruteForceOnSmallGraphs) {
  net::WaxmanOptions wopt;
  wopt.n = 7;
  const net::Graph g = net::waxman(wopt, rng_);
  // Brute force: enumerate all simple paths (graph is tiny).
  const auto brute = [&](NodeId src, NodeId dst) {
    net::Delay best = -1;
    std::vector<NodeId> stack{src};
    std::set<NodeId> seen{src};
    std::function<void(net::Delay)> go = [&](net::Delay acc) {
      const NodeId at = stack.back();
      if (at == dst) {
        if (best < 0 || acc < best) best = acc;
        return;
      }
      for (const net::LinkId id : g.out_links(at)) {
        const net::Link& l = g.link(id);
        if (!seen.insert(l.dst).second) continue;
        stack.push_back(l.dst);
        go(acc + l.delay);
        stack.pop_back();
        seen.erase(l.dst);
      }
    };
    go(0);
    return best;
  };
  for (int i = 0; i < 5; ++i) {
    const NodeId src = static_cast<NodeId>(rng_.index(g.node_count()));
    NodeId dst = src;
    while (dst == src) dst = static_cast<NodeId>(rng_.index(g.node_count()));
    const auto p = net::shortest_path(g, src, dst);
    const net::Delay expect = brute(src, dst);
    if (expect < 0) {
      EXPECT_FALSE(p.has_value());
    } else {
      ASSERT_TRUE(p.has_value());
      EXPECT_EQ(net::path_delay(g, *p), expect);
    }
  }
}

TEST_P(PropertySweep, MetricsBackedSchedulerDifferential) {
  // Metric-backed differentials over random instances: where the exact
  // solver proves optimality and the guarded greedy also succeeds, the
  // greedy makespan can never beat OPT; and on the metrics surface the
  // B&B can never record more incumbent improvements than nodes it
  // visited (each improvement happens at a leaf of a visited node).
  net::RandomInstanceOptions opt;
  opt.n = 8;
  for (int i = 0; i < 4; ++i) {
    const auto inst = net::random_instance(opt, rng_);
    obs::MetricsRegistry reg;
    obs::MetricsSnapshot snap;
    opt::MutpResult exact;
    core::ScheduleResult greedy;
    {
      const obs::ScopedMetrics scope(reg);
      exact = opt::solve_mutp(inst);
      greedy = core::greedy_schedule(inst, {});
      snap = reg.snapshot();
    }
    EXPECT_EQ(snap.counters.at("mutp.calls"), 1u);
    EXPECT_GE(snap.counters.at("mutp.nodes_visited"),
              snap.counters.at("mutp.incumbent_updates"));
    if (exact.feasible() && exact.proved_optimal && greedy.feasible()) {
      EXPECT_LE(exact.makespan, greedy.schedule.step_span());
    }
  }
}

TEST_P(PropertySweep, ProvedOptimalBoundsEveryHeuristic) {
  net::RandomInstanceOptions opt;
  opt.n = 8;
  for (int i = 0; i < 4; ++i) {
    const auto inst = net::random_instance(opt, rng_);
    const auto exact = opt::solve_mutp(inst);
    if (!exact.feasible() || !exact.proved_optimal) continue;
    const auto chain = core::chain_priority_schedule(inst);
    if (chain.feasible()) {
      EXPECT_LE(exact.makespan, chain.schedule.step_span());
    }
    util::Rng seeds = rng_.fork(static_cast<std::uint64_t>(i));
    const auto restart = core::randomized_restart_schedule(inst, seeds);
    if (restart.feasible()) {
      EXPECT_LE(exact.makespan, restart.schedule.step_span());
    }
  }
}

TEST_P(PropertySweep, OrRealizationsRespectPlannedRounds) {
  net::RandomInstanceOptions opt;
  opt.n = 9;
  for (int i = 0; i < 5; ++i) {
    const auto inst = net::random_instance(opt, rng_);
    opt::OrderResult plan;
    const auto exec =
        baselines::plan_and_execute_order_replacement(inst, rng_, {}, {}, &plan);
    ASSERT_TRUE(plan.feasible);
    // Realized activation times are strictly ordered across rounds.
    TimePoint prev_round_max{-1};
    for (const auto& round : plan.rounds) {
      TimePoint lo = std::numeric_limits<TimePoint>::max();
      TimePoint hi = std::numeric_limits<TimePoint>::min();
      for (const NodeId v : round) {
        lo = std::min(lo, *exec.realized.at(v));
        hi = std::max(hi, *exec.realized.at(v));
      }
      EXPECT_GT(lo, prev_round_max);
      prev_round_max = hi;
    }
  }
}

}  // namespace
}  // namespace chronus
