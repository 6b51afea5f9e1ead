// Tests for the incremental transition verifier: every verdict must agree
// with the from-scratch map-based verifier (tests/verifier_oracle.hpp),
// across random probe sequences and undo/redo patterns (the
// branch-and-bound usage).
#include <gtest/gtest.h>

#include "core/loop_check.hpp"
#include "net/generators.hpp"
#include "timenet/transition_state.hpp"
#include "timenet/verifier.hpp"
#include "verifier_oracle.hpp"

namespace chronus::timenet {
namespace {

using net::NodeId;

bool full_verify_ok(const net::UpdateInstance& inst,
                    const UpdateSchedule& sched) {
  VerifyOptions vo;
  vo.first_violation_only = true;
  return oracle::verify_transition(inst, sched, vo).ok();
}

TEST(TransitionStateT, AcceptsThePaperSchedule) {
  const auto inst = net::fig1_instance();
  TransitionState state(inst);
  EXPECT_TRUE(state.try_update(1, timenet::TimePoint{0}));  // v2@t0
  EXPECT_TRUE(state.try_update(2, timenet::TimePoint{1}));  // v3@t1
  EXPECT_TRUE(state.try_update(0, timenet::TimePoint{2}));  // v1@t2
  EXPECT_TRUE(state.try_update(3, timenet::TimePoint{2}));  // v4@t2
  EXPECT_TRUE(state.try_update(4, timenet::TimePoint{3}));  // v5@t3
  EXPECT_EQ(state.depth(), 5u);
  EXPECT_TRUE(full_verify_ok(inst, state.schedule()));
}

TEST(TransitionStateT, RejectsTheKnownBadMoves) {
  const auto inst = net::fig1_instance();
  TransitionState state(inst);
  ASSERT_TRUE(state.try_update(1, timenet::TimePoint{0}));   // v2@t0
  EXPECT_FALSE(state.try_update(2, timenet::TimePoint{0}));  // v3@t0 revisits v2
  EXPECT_EQ(state.depth(), 1u);
  ASSERT_TRUE(state.try_update(2, timenet::TimePoint{1}));   // v3@t1 fine
  EXPECT_FALSE(state.try_update(3, timenet::TimePoint{1}));  // v4@t1 loops (the paper's example)
  EXPECT_TRUE(state.try_update(3, timenet::TimePoint{2}));   // v4@t2 fine
}

TEST(TransitionStateT, RejectionLeavesStateUnchanged) {
  const auto inst = net::fig1_instance();
  TransitionState state(inst);
  ASSERT_TRUE(state.try_update(1, timenet::TimePoint{0}));
  const UpdateSchedule before = state.schedule();
  ASSERT_FALSE(state.try_update(2, timenet::TimePoint{0}));
  EXPECT_EQ(state.schedule(), before);
  // The exact same continuation still works.
  EXPECT_TRUE(state.try_update(2, timenet::TimePoint{1}));
}

TEST(TransitionStateT, UndoRestoresPreviousDecisions) {
  const auto inst = net::fig1_instance();
  TransitionState state(inst);
  ASSERT_TRUE(state.try_update(1, timenet::TimePoint{0}));
  ASSERT_TRUE(state.try_update(2, timenet::TimePoint{1}));
  state.undo();
  EXPECT_EQ(state.depth(), 1u);
  // v3@t0 is still invalid, v3@t1 still valid: undo is exact.
  EXPECT_FALSE(state.try_update(2, timenet::TimePoint{0}));
  EXPECT_TRUE(state.try_update(2, timenet::TimePoint{1}));
}

TEST(TransitionStateT, ThrowsOnMisuse) {
  const auto inst = net::fig1_instance();
  TransitionState state(inst);
  EXPECT_THROW(state.undo(), std::logic_error);
  ASSERT_TRUE(state.try_update(1, timenet::TimePoint{0}));
  EXPECT_THROW(state.try_update(1, timenet::TimePoint{5}), std::logic_error);
}

// Property: on random instances and random probe sequences, every verdict
// agrees with the from-scratch verifier, including after undos.
class StateVsVerifier : public ::testing::TestWithParam<int> {};

TEST_P(StateVsVerifier, VerdictsMatchFullVerification) {
  util::Rng rng(700 + GetParam());
  net::RandomInstanceOptions opt;
  opt.n = 8;
  for (int rep = 0; rep < 8; ++rep) {
    const auto inst = net::random_instance(opt, rng);
    TransitionState state(inst);
    UpdateSchedule applied;
    timenet::TimePoint t{};
    auto to_update = inst.switches_to_update();
    rng.shuffle(to_update);
    for (const NodeId v : to_update) {
      t += rng.uniform_int(0, 2);
      UpdateSchedule tentative = applied;
      tentative.set(v, t);
      const bool expect_ok = full_verify_ok(inst, tentative);
      const bool got_ok = state.try_update(v, t);
      ASSERT_EQ(got_ok, expect_ok)
          << "switch " << inst.graph().name(v) << " at t=" << t;
      if (got_ok) {
        applied = tentative;
        // Occasionally exercise undo + re-apply.
        if (rng.chance(0.3)) {
          state.undo();
          ASSERT_TRUE(state.try_update(v, t));
        }
      }
    }
    EXPECT_EQ(state.schedule(), applied);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateVsVerifier, ::testing::Range(0, 6));

// Multi-flow: verdicts must agree with verify_transitions over the joint
// loads of all flows, including cross-flow collisions and undo patterns.
class MultiStateVsVerifier : public ::testing::TestWithParam<int> {};

TEST_P(MultiStateVsVerifier, JointVerdictsMatchFullVerification) {
  util::Rng rng(900 + static_cast<std::uint64_t>(GetParam()));
  for (int rep = 0; rep < 4; ++rep) {
    // Two flows over one shared graph: build from a single random instance
    // and a reversed-role sibling so their paths interleave.
    net::RandomInstanceOptions opt;
    opt.n = 7;
    const auto base = net::random_instance(opt, rng);
    const net::Graph& g = base.graph();
    // Flow 1: rides the base instance's final path permanently (a static
    // competitor), moving from p_fin to p_fin-with-no-change is not an
    // update, so give it the reverse assignment: init = p_fin, fin = p_init
    // only when both directions exist; otherwise skip the rep.
    if (!net::path_exists_in(g, base.p_fin()) ||
        !net::path_exists_in(g, base.p_init())) {
      continue;
    }
    const auto sibling = net::UpdateInstance::from_paths(
        g, base.p_fin(), base.p_init(), base.demand());

    std::vector<const net::UpdateInstance*> flows{&base, &sibling};
    TransitionState state(flows);
    if (!state.initial_state_valid()) continue;  // paths overlap too much

    UpdateSchedule applied[2];
    timenet::TimePoint t{};
    for (int step = 0; step < 10; ++step) {
      const std::size_t f = rng.index(2);
      const auto to_update = flows[f]->switches_to_update();
      if (to_update.empty()) continue;
      const net::NodeId v = to_update[rng.index(to_update.size())];
      if (applied[f].contains(v)) continue;
      t += rng.uniform_int(0, 2);

      UpdateSchedule tentative = applied[f];
      tentative.set(v, t);
      FlowTransition ft0{&base, f == 0 ? &tentative : &applied[0], {}};
      FlowTransition ft1{&sibling, f == 1 ? &tentative : &applied[1], {}};
      VerifyOptions vo;
      vo.first_violation_only = true;
      const bool expect_ok = oracle::verify_transitions({ft0, ft1}, vo).ok();
      const bool got_ok = state.try_update(f, v, t);
      ASSERT_EQ(got_ok, expect_ok)
          << "flow " << f << " switch " << g.name(v) << " at t=" << t;
      if (got_ok) {
        applied[f] = tentative;
        if (rng.chance(0.25)) {
          state.undo();
          ASSERT_TRUE(state.try_update(f, v, t));
        }
      }
    }
    EXPECT_EQ(state.schedule(0), applied[0]);
    EXPECT_EQ(state.schedule(1), applied[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiStateVsVerifier, ::testing::Range(0, 4));

// Branch-and-bound usage: probe, descend, then backtrack several levels at
// once before probing again. Probe times also fall below earlier ones, so
// window extensions land on the step on top and must unwind with it.
// Every verdict must match the oracle on the schedule the stack of applied
// updates spells out.
struct Applied {
  std::size_t flow = 0;
  NodeId v = net::kInvalidNode;
  TimePoint t{};
};

UpdateSchedule schedule_of(const std::vector<Applied>& stack,
                           std::size_t flow) {
  UpdateSchedule sched;
  for (const Applied& a : stack) {
    if (a.flow == flow) sched.set(a.v, a.t);
  }
  return sched;
}

/// Pops 1..depth levels at once; false when the coin says probe instead.
bool maybe_backtrack(util::Rng& rng, TransitionState& state,
                     std::vector<Applied>& stack) {
  if (stack.empty() || !rng.chance(0.25)) return false;
  const std::size_t levels = 1 + rng.index(stack.size());
  for (std::size_t i = 0; i < levels; ++i) {
    state.undo();
    stack.pop_back();
  }
  return true;
}

class BranchAndBoundVsOracle : public ::testing::TestWithParam<int> {};

TEST_P(BranchAndBoundVsOracle, DeepUndoSequencesKeepVerdictsExact) {
  util::Rng rng(1600 + static_cast<std::uint64_t>(GetParam()));
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int rep = 0; rep < 6; ++rep) {
    net::RandomInstanceOptions opt;
    opt.n = 6 + rng.index(7);
    opt.slack_prob = rng.chance(0.5) ? 0.0 : 0.8;
    const auto inst = net::random_instance(opt, rng);
    const auto to_update = inst.switches_to_update();
    if (to_update.empty()) continue;
    TransitionState state(inst);
    std::vector<Applied> stack;
    for (int op = 0; op < 40; ++op) {
      if (maybe_backtrack(rng, state, stack)) {
        ASSERT_EQ(state.depth(), stack.size());
        ASSERT_EQ(state.schedule(), schedule_of(stack, 0));
        continue;
      }
      const NodeId v = to_update[rng.index(to_update.size())];
      UpdateSchedule tentative = schedule_of(stack, 0);
      if (tentative.contains(v)) continue;
      const TimePoint t{rng.uniform_int(-2, 8)};
      tentative.set(v, t);
      const bool expect_ok = full_verify_ok(inst, tentative);
      ASSERT_EQ(state.try_update(v, t), expect_ok)
          << "switch " << inst.graph().name(v) << " at t=" << t
          << " depth " << stack.size();
      if (expect_ok) {
        stack.push_back(Applied{0, v, t});
        ++accepted;
      } else {
        ++rejected;
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST_P(BranchAndBoundVsOracle, TwoFlowDeepUndoSequencesKeepVerdictsExact) {
  util::Rng rng(1700 + static_cast<std::uint64_t>(GetParam()));
  for (int rep = 0; rep < 6; ++rep) {
    net::RandomInstanceOptions opt;
    opt.n = 6 + rng.index(5);
    opt.slack_prob = 0.8;
    const auto base = net::random_instance(opt, rng);
    if (!net::path_exists_in(base.graph(), base.p_fin())) continue;
    const auto sibling = net::UpdateInstance::from_paths(
        base.graph(), base.p_fin(), base.p_init(), base.demand());
    const std::vector<const net::UpdateInstance*> flows{&base, &sibling};
    TransitionState state(flows);
    if (!state.initial_state_valid()) continue;
    std::vector<Applied> stack;
    for (int op = 0; op < 40; ++op) {
      if (maybe_backtrack(rng, state, stack)) {
        ASSERT_EQ(state.depth(), stack.size());
        ASSERT_EQ(state.schedule(0), schedule_of(stack, 0));
        ASSERT_EQ(state.schedule(1), schedule_of(stack, 1));
        continue;
      }
      const std::size_t f = rng.index(2);
      const auto to_update = flows[f]->switches_to_update();
      if (to_update.empty()) continue;
      const NodeId v = to_update[rng.index(to_update.size())];
      UpdateSchedule sched[2] = {schedule_of(stack, 0), schedule_of(stack, 1)};
      if (sched[f].contains(v)) continue;
      const TimePoint t{rng.uniform_int(-2, 8)};
      sched[f].set(v, t);
      VerifyOptions vo;
      vo.first_violation_only = true;
      const bool expect_ok =
          oracle::verify_transitions(
              {{&base, &sched[0], {}}, {&sibling, &sched[1], {}}}, vo)
              .ok();
      ASSERT_EQ(state.try_update(f, v, t), expect_ok)
          << "flow " << f << " switch " << base.graph().name(v)
          << " at t=" << t << " depth " << stack.size();
      if (expect_ok) stack.push_back(Applied{f, v, t});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BranchAndBoundVsOracle, ::testing::Range(0, 6));

// The settle bound the guarded greedy's stall relies on: after a random
// accepted prefix, every pending switch gets one try_update verdict at
// every t in [settle_time(), settle_time() + 2d], and Algorithm 4 gives
// one answer at every t from the settle time or from the last update plus
// the old path's delay, whichever comes first.
class SettleBound : public ::testing::TestWithParam<int> {};

TEST_P(SettleBound, VerdictsRepeatFromTheSettleTime) {
  util::Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  std::size_t compared = 0;
  std::size_t accepts = 0;
  for (int rep = 0; rep < 10; ++rep) {
    net::RandomInstanceOptions opt;
    opt.n = 6 + rng.index(10);
    opt.slack_prob = rng.chance(0.5) ? 0.0 : 0.8;
    opt.delay_max = rng.uniform_int(1, 3);
    const auto inst = net::random_instance(opt, rng);
    const net::Graph& g = inst.graph();
    const std::int64_t d =
        static_cast<std::int64_t>(g.node_count() + 2) * g.max_delay();
    auto to_update = inst.switches_to_update();
    rng.shuffle(to_update);

    // A random accepted prefix: probes at non-decreasing times, as the
    // greedy makes them, keeping what is accepted.
    TransitionState state(inst);
    core::Algorithm4Context alg4(inst);
    std::vector<NodeId> pending;
    TimePoint t{};
    const std::size_t tries = rng.index(to_update.size() + 1);
    for (std::size_t i = 0; i < to_update.size(); ++i) {
      t += rng.uniform_int(0, 2);
      if (i < tries && state.try_update(to_update[i], t)) {
        alg4.note_update(to_update[i], t);
      } else {
        pending.push_back(to_update[i]);
      }
    }
    alg4.begin_step();

    const TimePoint settle =
        state.schedule().empty() ? TimePoint{0} : state.settle_time();
    for (const NodeId v : pending) {
      const bool first = state.try_update(v, settle);
      if (first) state.undo();
      for (TimePoint at = settle + 1; at <= settle + 2 * d; ++at) {
        const bool again = state.try_update(v, at);
        ASSERT_EQ(again, first) << "switch " << g.name(v) << " at t=" << at
                                << ", settle time " << settle;
        if (again) state.undo();
        ++compared;
      }
      accepts += first ? 1 : 0;
    }

    TimePoint drained = settle;
    if (!state.schedule().empty()) {
      drained = std::min(drained, state.schedule().last_time() +
                                      net::path_delay(g, inst.p_init()));
    }
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const bool first = alg4.loops(v, drained);
      for (TimePoint at = drained + 1; at <= drained + 2 * d; ++at) {
        ASSERT_EQ(alg4.loops(v, at), first)
            << "Algorithm 4 on " << g.name(v) << " at t=" << at;
      }
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(accepts, 0u) << "no settled probe was ever accepted";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SettleBound, ::testing::Range(0, 6));

TEST(TransitionStateT, NewTailMeetsAnotherFlowsOldHead) {
  // Flow 0 moves from 0-1-2-3-4 to 0-2-4; flow 1 moves the other way and
  // is scheduled late (t = 23), so its old head runs over 2->4 (capacity
  // 2) until t = 21. Updating switch 2 at 0 sends flow 0's in-flight
  // classes onto 2->4 at t = 0..2 next to that head: a load of 2, clean.
  // Updating the source at 0 as well starts flow 0's tail on 2->4 at
  // t = 1; with the head and those classes that is 3. No class is
  // retraced by that probe, and at the head's end only the tail and
  // flow 1's first traced class remain (2), so only the tail-vs-head
  // check sees it.
  net::Graph g;
  g.add_nodes(5);
  g.add_link(0, 1, net::Capacity{2.0}, 1);
  g.add_link(1, 2, net::Capacity{2.5}, 2);
  g.add_link(2, 3, net::Capacity{1.5}, 2);
  g.add_link(3, 4, net::Capacity{2.5}, 2);
  g.add_link(0, 2, net::Capacity{3.0}, 1);
  g.add_link(2, 4, net::Capacity{2.0}, 2);
  const auto f0 = net::UpdateInstance::from_paths(
      g, net::Path{0, 1, 2, 3, 4}, net::Path{0, 2, 4}, net::Demand{1.0});
  const auto f1 = net::UpdateInstance::from_paths(
      g, net::Path{0, 2, 4}, net::Path{0, 1, 2, 3, 4}, net::Demand{1.0});
  TransitionState state({&f0, &f1});
  ASSERT_TRUE(state.initial_state_valid());

  const std::vector<Applied> probes{
      {1, 3, TimePoint{23}}, {0, 2, TimePoint{0}}, {0, 0, TimePoint{0}}};
  std::vector<Applied> applied;
  for (const Applied& p : probes) {
    std::vector<Applied> tentative = applied;
    tentative.push_back(p);
    const UpdateSchedule s0 = schedule_of(tentative, 0);
    const UpdateSchedule s1 = schedule_of(tentative, 1);
    const bool want =
        oracle::verify_transitions({{&f0, &s0, {}}, {&f1, &s1, {}}}).ok();
    ASSERT_EQ(state.try_update(p.flow, p.v, p.t), want)
        << "flow " << p.flow << " switch " << p.v << " at t=" << p.t;
    if (want) applied.push_back(p);
  }
  EXPECT_EQ(applied.size(), 2u);  // the last probe congests 2->4
}

TEST(TransitionStateT, InitialValidityDetectsOverload) {
  net::Graph g;
  g.add_nodes(3);
  g.add_link(0, 2, net::Capacity{1.5}, 1);
  g.add_link(1, 2, net::Capacity{1.0}, 1);
  const auto f0 =
      net::UpdateInstance::from_paths(g, net::Path{0, 2}, net::Path{0, 2}, net::Demand{1.0});
  const auto f1 =
      net::UpdateInstance::from_paths(g, net::Path{0, 2}, net::Path{0, 2}, net::Demand{1.0});
  TransitionState both({&f0, &f1});
  EXPECT_FALSE(both.initial_state_valid());  // 2.0 > 1.5 on link 0->2
  TransitionState one(f0);
  EXPECT_TRUE(one.initial_state_valid());
}

TEST(TransitionStateT, DeepUndoToEmpty) {
  const auto inst = net::fig1_instance();
  TransitionState state(inst);
  ASSERT_TRUE(state.try_update(1, timenet::TimePoint{0}));
  ASSERT_TRUE(state.try_update(2, timenet::TimePoint{1}));
  ASSERT_TRUE(state.try_update(0, timenet::TimePoint{2}));
  state.undo();
  state.undo();
  state.undo();
  EXPECT_EQ(state.depth(), 0u);
  EXPECT_TRUE(state.schedule().empty());
  // A fresh start from empty works.
  EXPECT_TRUE(state.try_update(1, timenet::TimePoint{0}));
}

}  // namespace
}  // namespace chronus::timenet
