// Forwarding-loop checks (Algorithm 4).
//
// The schedulers check loops through Algorithm4Context below (every greedy
// variant asks it first: an O(1) query over dense per-call state that
// folds accepted updates in once per step) and, in guarded mode, through
// timenet::TransitionState (incremental and exact). The exact per-call
// probe and the paper's literal upstream walk live in tests/ as oracles
// (tests/loop_oracle.hpp).
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "net/instance.hpp"
#include "obs/metrics.hpp"
#include "timenet/schedule.hpp"

namespace chronus::core {

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

  /// Algorithm 4 with every update noted before the last begin_step()
  /// applied. It checks both the continuously arriving flow (does v sit on
  /// the current forwarding path with its new next hop upstream?) and the
  /// in-flight old-path classes that can still reach v at or after t,
  /// given the update times already scheduled upstream.
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
