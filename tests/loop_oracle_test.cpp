// Tests for the loop checks: the reference checks of tests/loop_oracle.hpp
// on the paper's running example, then the two properties they are kept
// for as oracles. Every Algorithm4Context positive is an exact positive
// (the guarded greedy skips the exact probe on an Algorithm 4 positive, so
// a false positive would cost it a safe update), and the structural
// upstream walk flags loops the exact check clears (DESIGN.md §6,
// finding 3).
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "core/loop_check.hpp"
#include "loop_oracle.hpp"
#include "net/generators.hpp"
#include "util/rng.hpp"

namespace chronus::core {
namespace {

using net::NodeId;
using net::Path;
using oracle::current_forwarding_path;
using oracle::current_next;
using oracle::exact_loop_check;
using oracle::structural_loop_check;
using timenet::TimePoint;
using timenet::UpdateSchedule;

// Node ids in fig1_instance(): v1=0 .. v6=5.
constexpr NodeId v1 = 0, v2 = 1, v3 = 2, v4 = 3, v6 = 5;

/// Algorithm 4 as the greedy asks it at the start of a step: a context
/// with every update of `sched` noted and folded in.
bool algorithm4_loops(const net::UpdateInstance& inst,
                      const UpdateSchedule& sched, NodeId v, TimePoint t) {
  Algorithm4Context alg4(inst);
  for (const auto& [u, tu] : sched.entries()) alg4.note_update(u, tu);
  alg4.begin_step();
  return alg4.loops(v, t);
}

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
  // Updating only v4 (v4 -> v3 while v3 still forwards to v4) loops the
  // steady path v1 v2 v3 v4 v3.
  const auto inst = net::fig1_instance();
  EXPECT_FALSE(current_forwarding_path(inst, {v4}).has_value());
}

TEST(LoopCheck, ExactRejectsV3AtT0) {
  const auto inst = net::fig1_instance();
  UpdateSchedule sched;
  sched.set(v2, TimePoint{0});
  EXPECT_TRUE(exact_loop_check(inst, sched, v3, TimePoint{0}));
  EXPECT_FALSE(exact_loop_check(inst, sched, v3, TimePoint{1}));
}

TEST(LoopCheck, ExactRejectsV4UntilT2) {
  const auto inst = net::fig1_instance();
  UpdateSchedule sched;
  sched.set(v2, TimePoint{0});
  sched.set(v3, TimePoint{1});
  EXPECT_TRUE(exact_loop_check(inst, sched, v4, TimePoint{1}));
  EXPECT_FALSE(exact_loop_check(inst, sched, v4, TimePoint{2}));
}

TEST(LoopCheck, Algorithm4AgreesOnFig1) {
  const auto inst = net::fig1_instance();
  UpdateSchedule sched;
  sched.set(v2, TimePoint{0});
  EXPECT_TRUE(algorithm4_loops(inst, sched, v3, TimePoint{0}));
  EXPECT_FALSE(algorithm4_loops(inst, sched, v3, TimePoint{1}));
  sched.set(v3, TimePoint{1});
  EXPECT_TRUE(algorithm4_loops(inst, sched, v4, TimePoint{1}));
  EXPECT_FALSE(algorithm4_loops(inst, sched, v4, TimePoint{2}));
}

TEST(LoopCheck, StructuralUpstreamRule) {
  const auto inst = net::fig1_instance();
  // v3's new next hop v2 lies upstream of v3 on the current (old) path.
  EXPECT_TRUE(structural_loop_check(inst, {}, v3));
  // v2's new next hop v6 is downstream: safe.
  EXPECT_FALSE(structural_loop_check(inst, {}, v2));
}

/// One probe of the greedy's setting: a random instance (6-15 switches), a
/// random partial schedule, a pending switch v and a time t after every
/// scheduled update.
struct Probe {
  net::UpdateInstance inst;
  UpdateSchedule sched;
  std::set<NodeId> updated;
  NodeId v = net::kInvalidNode;
  TimePoint t{};
};

/// Three probes per instance on `instances` seeded random instances.
std::vector<Probe> probes(std::uint64_t seed, int instances) {
  util::Rng rng(seed);
  std::vector<Probe> out;
  for (int c = 0; c < instances; ++c) {
    net::RandomInstanceOptions opt;
    opt.n = static_cast<std::size_t>(rng.uniform_int(6, 15));
    const net::UpdateInstance inst = net::random_instance(opt, rng);
    UpdateSchedule sched;
    std::set<NodeId> updated;
    std::vector<NodeId> pending;
    for (const NodeId v : inst.switches_to_update()) {
      if (rng.chance(0.4)) {
        sched.set(v, TimePoint{rng.uniform_int(0, 8)});
        updated.insert(v);
      } else {
        pending.push_back(v);
      }
    }
    if (pending.empty()) continue;
    const TimePoint after = sched.empty() ? TimePoint{0} : sched.last_time() + 1;
    for (int k = 0; k < 3; ++k) {
      const NodeId v = pending[rng.index(pending.size())];
      const TimePoint t = after + rng.uniform_int(0, 6);
      out.push_back(Probe{inst, sched, updated, v, t});
    }
  }
  return out;
}

TEST(LoopOracle, Algorithm4PositivesAreExactPositives) {
  // The greedy trusts an Algorithm 4 positive without probing: it proves a
  // concrete in-flight or newly injected class would revisit a switch.
  int positives = 0;
  for (const Probe& p : probes(0x100f, 1000)) {
    if (!algorithm4_loops(p.inst, p.sched, p.v, p.t)) continue;
    ++positives;
    EXPECT_TRUE(exact_loop_check(p.inst, p.sched, p.v, p.t))
        << "Algorithm 4 rejects v" << p.v << " at t=" << p.t.count()
        << " but no class loops";
  }
  EXPECT_GT(positives, 100);
}

TEST(LoopOracle, StructuralWalkOverRejects) {
  // The paper's own example: once v2 is updated at t0, v3 carries no
  // steady flow and its new next hop v2 lies upstream on the old path, so
  // the timeless walk rejects v3 forever; the in-flight class it fears has
  // drained by t1.
  const auto fig1 = net::fig1_instance();
  UpdateSchedule after_v2;
  after_v2.set(v2, TimePoint{0});
  EXPECT_TRUE(structural_loop_check(fig1, {v2}, v3));
  EXPECT_FALSE(exact_loop_check(fig1, after_v2, v3, TimePoint{1}));

  int over_rejects = 0;
  for (const Probe& p : probes(0x1010, 300)) {
    if (structural_loop_check(p.inst, p.updated, p.v) &&
        !exact_loop_check(p.inst, p.sched, p.v, p.t)) {
      ++over_rejects;
    }
  }
  EXPECT_GT(over_rejects, 10);
}

}  // namespace
}  // namespace chronus::core
