// Forwarding-loop checks (Algorithm 4).
//
// The schedulers check loops through timenet::TransitionState (the
// guarded greedy: incremental and exact) and Algorithm4Context below (the
// pure greedy: batched, at Fig. 10 scale). The free functions are the
// per-call forms; only tests/core_test.cpp and the BM_ExactLoopCheck micro
// bench call them:
//
// * exact_loop_check: tentatively applies the candidate update and traces
//   every injection class that can still be in flight (plus one
//   representative future class); any revisited switch is a Definition-2
//   violation. This is the time-extended search the paper describes, made
//   exhaustive.
// * structural_loop_check: the paper's upstream walk in literal form —
//   updating v at t loops iff v's new next hop lies upstream of v on the
//   forwarding path the in-flight flow has taken. Kept for exposition.
// * algorithm4_loop_check: Algorithm 4 with its time-extended bookkeeping,
//   as a one-shot Algorithm4Context query.
#pragma once

#include <set>
#include <unordered_map>
#include <vector>

#include "net/instance.hpp"
#include "obs/metrics.hpp"
#include "timenet/schedule.hpp"

namespace chronus::core {

/// True iff updating `v` at time `t`, on top of `scheduled`, makes some
/// in-flight or future injection class revisit a switch.
bool exact_loop_check(const net::UpdateInstance& inst,
                      const timenet::UpdateSchedule& scheduled, net::NodeId v,
                      timenet::TimePoint t);

/// The purely structural upstream walk (a naive reading of Algorithm 4):
/// true iff v's new next hop lies upstream of v on the current forwarding
/// path (or the old path, when v carries no live flow). Ignores timing, so
/// it both over- and under-rejects relative to the time-aware checks; kept
/// for exposition and comparison tests only.
bool structural_loop_check(const net::UpdateInstance& inst,
                           const std::set<net::NodeId>& updated,
                           net::NodeId v);

/// The paper's Algorithm 4 with its time-extended bookkeeping: checks both
/// the continuously arriving flow (does v sit on the current forwarding
/// path with its new next hop upstream?) and the in-flight old-path
/// classes that can still reach v at or after t given the update times
/// already scheduled upstream. O(|p_init|) per call; the pure (unguarded)
/// greedy runs the same check batched through Algorithm4Context.
bool algorithm4_loop_check(const net::UpdateInstance& inst,
                           const timenet::UpdateSchedule& scheduled,
                           const std::set<net::NodeId>& updated, net::NodeId v,
                           timenet::TimePoint t);

/// Batched Algorithm 4: precomputes the p_init position/delay tables once
/// and the current forwarding path once per time step, so checking each
/// candidate head costs O(|old-path prefix|) instead of O(n) path walks.
/// The pure greedy uses this at Fig. 10 scale (thousands of switches).
class Algorithm4Context {
 public:
  explicit Algorithm4Context(const net::UpdateInstance& inst);

  /// Call at the start of each time step with the switches already updated
  /// and the schedule assigned so far. Heads accepted *within* the step
  /// are not folded in; they can only shrink the in-flight window, so the
  /// stale value errs towards rejecting a head (it is retried next step).
  void begin_step(const std::set<net::NodeId>& updated,
                  const timenet::UpdateSchedule& scheduled);

  /// Same verdict as algorithm4_loop_check under the state of begin_step.
  bool loops(net::NodeId v, timenet::TimePoint t) const;

 private:
  const net::UpdateInstance* inst_;
  // loopcheck.invocations slot, resolved once at construction (null when
  // metrics are dark). The context must not outlive the registry that
  // issued the handle — contexts are per-call locals in practice.
  obs::Counter* invocations_ = nullptr;
  std::vector<net::Delay> init_prefix_delay_;  // D(i) per position
  std::unordered_map<net::NodeId, std::size_t> init_pos_;
  std::unordered_map<net::NodeId, std::size_t> cur_pos_;  // current path
  // tau_max_prefix_[i] = min over scheduled ancestors k < i of
  // (T(u_k) - D(k) - 1): the newest class that can still reach position i
  // over the old path.
  std::vector<timenet::TimePoint> tau_max_prefix_;
};

}  // namespace chronus::core
