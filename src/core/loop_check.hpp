// Forwarding-loop checks (Algorithm 4).
//
// The schedulers check loops through Algorithm4Context below (every greedy
// variant asks it first: an O(1) query over dense per-call state that
// folds accepted updates in once per step) and, in guarded mode, through
// timenet::TransitionState (incremental and exact). The free functions are
// the per-call forms; only tests and the BM_ExactLoopCheck micro bench
// call them:
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

#include <cstdint>
#include <limits>
#include <set>
#include <utility>
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
/// already scheduled upstream. `updated` must be exactly the switches
/// `scheduled` assigns. O(n) per call; the schedulers run the same check
/// batched through Algorithm4Context.
bool algorithm4_loop_check(const net::UpdateInstance& inst,
                           const timenet::UpdateSchedule& scheduled,
                           const std::set<net::NodeId>& updated, net::NodeId v,
                           timenet::TimePoint t);

/// Batched Algorithm 4 over dense per-call storage: per switch its p_init
/// position, its old and new next hop (link existence checked once) and
/// an updated flag; per p_init position the prefix delay D(i) and the
/// update time. Accepted updates are queued with note_update() and folded
/// in by begin_step(), which re-walks the current forwarding path and
/// recomputes the in-flight window from the first p_init position whose
/// update time changed. A loops() query is O(1). The pure greedy runs
/// this at Fig. 10 scale (thousands of switches).
class Algorithm4Context {
 public:
  /// Starts with nothing updated (the state of begin_step on an empty
  /// schedule).
  explicit Algorithm4Context(const net::UpdateInstance& inst);

  /// v is updated at t, from the next begin_step() on. Heads accepted
  /// *within* a step are not folded in; they can only shrink the in-flight
  /// window, so the stale value errs towards rejecting a head (it is
  /// retried next step).
  void note_update(net::NodeId v, timenet::TimePoint t);

  /// Call at the start of each time step: folds in the updates noted since
  /// the last call.
  void begin_step();

  /// Same verdict as algorithm4_loop_check with every update noted before
  /// the last begin_step() applied.
  bool loops(net::NodeId v, timenet::TimePoint t) const;

 private:
  static constexpr std::uint32_t kNoPos =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr timenet::TimePoint kNever =
      std::numeric_limits<timenet::TimePoint>::max();

  struct Switch {
    net::NodeId old_hop = net::kInvalidNode;   ///< old rule, over a link
    net::NodeId new_hop = net::kInvalidNode;   ///< new rule, over a link
    net::NodeId new_next = net::kInvalidNode;  ///< new rule as installed
    std::uint32_t init_pos = kNoPos;           ///< position on p_init
    std::uint32_t cur_pos = kNoPos;  ///< position on the current path
    bool updated = false;
  };

  /// Rebuilds cur_pos along the path newly injected packets take; leaves
  /// every cur_pos unset when the configuration loops or blackholes.
  void walk_current_path();

  // loopcheck.invocations slot, resolved once at construction (null when
  // metrics are dark). The context must not outlive the registry that
  // issued the handle — contexts are per-call locals in practice.
  obs::Counter* invocations_ = nullptr;
  net::NodeId src_ = net::kInvalidNode;
  net::NodeId dst_ = net::kInvalidNode;
  std::vector<Switch> switches_;
  std::vector<net::NodeId> cur_path_;          ///< switches holding a cur_pos
  std::vector<net::Delay> init_prefix_delay_;  ///< D(i) per position
  std::vector<timenet::TimePoint> init_time_;  ///< T(p_init[i]); kNever
  // tau_max_prefix_[i] = min over scheduled ancestors k < i of
  // (T(u_k) - D(k) - 1): the newest class that can still reach position i
  // over the old path.
  std::vector<timenet::TimePoint> tau_max_prefix_;
  std::vector<std::pair<net::NodeId, timenet::TimePoint>> noted_;
};

}  // namespace chronus::core
