// Tests for the heuristic schedulers: verified cleanliness, agreement on
// the paper's example, the improvement properties they promise, and a
// golden digest that pins their outputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/heuristics.hpp"
#include "net/generators.hpp"
#include "timenet/verifier.hpp"

namespace chronus::core {
namespace {

TEST(ChainPriority, SolvesFig1Cleanly) {
  const auto inst = net::fig1_instance();
  const ScheduleResult res = chain_priority_schedule(inst);
  ASSERT_TRUE(res.feasible()) << res.message;
  EXPECT_EQ(res.schedule.step_span(), 4);
  EXPECT_TRUE(timenet::verify_transition(inst, res.schedule).ok());
}

TEST(ChainPriority, AlwaysCleanOnRandomInstances) {
  util::Rng rng(31);
  net::RandomInstanceOptions opt;
  opt.n = 14;
  for (int i = 0; i < 25; ++i) {
    const auto inst = net::random_instance(opt, rng);
    const ScheduleResult res = chain_priority_schedule(inst);
    if (res.feasible()) {
      EXPECT_TRUE(timenet::verify_transition(inst, res.schedule).ok());
    }
  }
}

TEST(ChainPriority, NothingToUpdate) {
  net::Graph g = net::line_topology(3, net::Capacity{1.0}, 1);
  const auto inst = net::UpdateInstance::from_paths(g, net::Path{0, 1, 2},
                                                    net::Path{0, 1, 2}, net::Demand{1.0});
  EXPECT_TRUE(chain_priority_schedule(inst).feasible());
}

TEST(RandomizedRestart, CleanAndNeverWorseThanItsOwnRuns) {
  util::Rng rng(32);
  net::RandomInstanceOptions opt;
  opt.n = 12;
  for (int i = 0; i < 10; ++i) {
    const auto inst = net::random_instance(opt, rng);
    util::Rng seeds(100 + i);
    RestartOptions ro;
    ro.restarts = 8;
    const ScheduleResult best = randomized_restart_schedule(inst, seeds, ro);
    if (!best.feasible()) continue;
    EXPECT_TRUE(timenet::verify_transition(inst, best.schedule).ok());
  }
}

TEST(RandomizedRestart, FindsFeasibleAtLeastAsOftenAsGreedy) {
  util::Rng rng(33);
  net::RandomInstanceOptions opt;
  opt.n = 12;
  int greedy_ok = 0;
  int restart_ok = 0;
  for (int i = 0; i < 20; ++i) {
    const auto inst = net::random_instance(opt, rng);
    GreedyOptions gopts;
    gopts.record_steps = false;
    const bool g = greedy_schedule(inst, gopts).feasible();
    util::Rng seeds(200 + i);
    const bool r = randomized_restart_schedule(inst, seeds).feasible();
    greedy_ok += g;
    restart_ok += r;
    // Restarts include many orders; a deterministic success should very
    // rarely be missed by 16 random ones, and never on these seeds.
    if (g) {
      EXPECT_TRUE(r) << "instance " << i;
    }
  }
  EXPECT_GE(restart_ok, greedy_ok);
}

TEST(RandomizedRestart, MakespanNeverWorseThanGreedyOnAverage) {
  util::Rng rng(34);
  net::RandomInstanceOptions opt;
  opt.n = 12;
  double greedy_total = 0;
  double restart_total = 0;
  int both = 0;
  for (int i = 0; i < 15; ++i) {
    const auto inst = net::random_instance(opt, rng);
    GreedyOptions gopts;
    gopts.record_steps = false;
    const auto g = greedy_schedule(inst, gopts);
    util::Rng seeds(300 + i);
    const auto r = randomized_restart_schedule(inst, seeds);
    if (!g.feasible() || !r.feasible()) continue;
    ++both;
    greedy_total += static_cast<double>(g.schedule.step_span());
    restart_total += static_cast<double>(r.schedule.step_span());
  }
  ASSERT_GT(both, 5);
  EXPECT_LE(restart_total, greedy_total);
}

TEST(RandomizedRestart, InfeasibleInstanceStaysInfeasible) {
  net::Graph g;
  g.add_nodes(4);
  g.add_link(0, 1, net::Capacity{1.0}, 2);
  g.add_link(1, 2, net::Capacity{1.0}, 2);
  g.add_link(2, 3, net::Capacity{1.0}, 2);
  g.add_link(0, 2, net::Capacity{1.0}, 1);
  const auto inst = net::UpdateInstance::from_paths(
      g, net::Path{0, 1, 2, 3}, net::Path{0, 2, 3}, net::Demand{1.0});
  util::Rng rng(35);
  EXPECT_FALSE(randomized_restart_schedule(inst, rng).feasible());
}

TEST(Heuristics, GoldenDigest) {
  // FNV-1a over status, `verified` and every (switch, time) of both
  // heuristics' results on fig1 and 252 random instances (n = 5..40, seven
  // per size). Messages are left out. 212 of the 506 results are
  // infeasible, so stalls walked to the drain bound are pinned too.
  std::vector<net::UpdateInstance> corpus{net::fig1_instance()};
  util::Rng rng(0x4e57);
  for (std::size_t n = 5; n <= 40; ++n) {
    net::RandomInstanceOptions opt;
    opt.n = n;
    for (int i = 0; i < 7; ++i) corpus.push_back(net::random_instance(opt, rng));
  }
  std::uint64_t h = 1469598103934665603ULL;
  const auto add = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  int infeasible = 0;
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    util::Rng seeds(0x4e58 + k);
    RestartOptions ro;
    ro.restarts = 6;
    for (const ScheduleResult& res :
         {chain_priority_schedule(corpus[k]),
          randomized_restart_schedule(corpus[k], seeds, ro)}) {
      add(static_cast<std::uint64_t>(res.status));
      add(res.verified ? 1 : 0);
      for (const auto& [v, t] : res.schedule.entries()) {
        add(v);
        add(static_cast<std::uint64_t>(t.count()));
      }
      infeasible += res.feasible() ? 0 : 1;
    }
  }
  // Recorded with the heuristics' own copy of the Algorithm 2 loop, before
  // they ran through greedy_schedule.
  EXPECT_EQ(infeasible, 212);
  EXPECT_EQ(h, 0x1ce538ee1426ba5dULL);
}

TEST(Tighten, ImprovesEvenTheFig1Schedule) {
  // The paper's dependency relation (v3 -> v1) holds v1 back until t2, but
  // the exact semantics allow v1 at t1 (its redirected flow only touches
  // links the drain has already left). Tightening finds that; v5 cannot
  // move before t3 (earlier slots loop), so the 4-step span stands — which
  // also matches OPT's proved optimum for this instance.
  const auto inst = net::fig1_instance();
  const auto plan = greedy_schedule(inst);
  const auto tight = tighten_schedule(inst, plan.schedule);
  EXPECT_TRUE(timenet::verify_transition(inst, tight).ok());
  EXPECT_EQ(tight.at(0), std::optional<timenet::TimePoint>(1));  // v1 earlier
  EXPECT_EQ(tight.at(4), std::optional<timenet::TimePoint>(3));  // v5 pinned
  EXPECT_EQ(tight.step_span(), 4);
}

TEST(Tighten, RemovesArtificialSlack) {
  const auto inst = net::fig1_instance();
  const auto plan = greedy_schedule(inst);
  // Stretch the schedule: every step 3 units apart, starting at 100.
  timenet::UpdateSchedule padded;
  for (const auto& [v, t] : plan.schedule.entries()) {
    padded.set(v, timenet::TimePoint{100 + 3 * t.count()});
  }
  ASSERT_TRUE(timenet::verify_transition(inst, padded).ok());
  const auto tight = tighten_schedule(inst, padded);
  EXPECT_TRUE(timenet::verify_transition(inst, tight).ok());
  EXPECT_EQ(tight.first_time(), timenet::TimePoint{0});
  EXPECT_LE(tight.step_span(), plan.schedule.step_span());
}

TEST(Tighten, NeverWorsensRandomSchedules) {
  util::Rng rng(36);
  net::RandomInstanceOptions opt;
  opt.n = 10;
  for (int i = 0; i < 10; ++i) {
    const auto inst = net::random_instance(opt, rng);
    GreedyOptions gopts;
    gopts.record_steps = false;
    const auto plan = greedy_schedule(inst, gopts);
    if (!plan.feasible() || plan.schedule.empty()) continue;
    const auto tight = tighten_schedule(inst, plan.schedule);
    EXPECT_LE(tight.step_span(), plan.schedule.step_span());
    EXPECT_TRUE(timenet::verify_transition(inst, tight).ok());
    EXPECT_EQ(tight.size(), plan.schedule.size());
  }
}

TEST(Tighten, RejectsUnsafeInput) {
  const auto inst = net::fig1_instance();
  timenet::UpdateSchedule bad;
  for (const auto v : inst.switches_to_update()) bad.set(v, timenet::TimePoint{0});
  EXPECT_THROW(tighten_schedule(inst, bad), std::invalid_argument);
}

TEST(Tighten, EmptyScheduleStaysEmpty) {
  const auto inst = net::fig1_instance();
  EXPECT_TRUE(tighten_schedule(inst, {}).empty());
}

}  // namespace
}  // namespace chronus::core
