// The Chronus greedy scheduler (Algorithm 2).
//
// At each time step t the scheduler computes the dependency relation set
// among the pending switches (Algorithm 3), takes the head of every chain,
// rejects heads whose update would create a forwarding loop (Algorithm 4),
// and updates the surviving heads simultaneously at t — maximizing per-step
// parallelism and hence minimizing the total update time. One time step is
// appended per round until all switches are updated or the update is
// declared infeasible (dependency cycle, or no progress for longer than any
// in-flight traffic can take to drain).
//
// The step state is built once per call: the Algorithm 3 DependencyTable
// (each switch's static candidate predecessor), the Algorithm 4 context
// (dense per-node arrays, folded in incrementally) and the pending switches
// as an ascending id list with a live flag per node, compacted once per
// step. A step is then one pass over the pending ids plus the part of the
// Algorithm 4 state the last step's updates changed; no set or map is
// built per round. With `record_steps` off (the service and Fig. 10) the
// pass yields the chain heads only.
//
// With `guard_with_verifier` (the default) every accepted update is also
// checked against the exact time-extended verifier, which upholds
// Theorem 3 (the emitted sequence is congestion- and loop-free) for
// arbitrary link delays, and the result is marked `verified`; switching
// the guard off gives the paper's pure dependency + structural-loop-check
// behaviour (the ablation in bench/ablation_greedy_variants), whose plans
// the verifier may reject.
//
// A guarded stall settles: once a round makes no progress at or after
// TransitionState::settle_time(), every later round repeats its verdicts
// (the Alg. 3 heads, Alg. 4's answers and every probe's). The loop then
// skips the probes but still walks to the stall limit, so results and
// counters are those of probing every round.
#pragma once

#include <string>
#include <vector>

#include "core/dependency.hpp"
#include "net/instance.hpp"
#include "timenet/schedule.hpp"

namespace chronus::core {

enum class ScheduleStatus {
  kFeasible,    ///< complete schedule (checked by the guard iff `verified`)
  kInfeasible,  ///< no congestion- and loop-free sequence found
  kBestEffort,  ///< infeasible, but a completing schedule was forced
};

/// Per-step diagnostics: the Fig. 5 view of one time step.
struct StepLog {
  timenet::TimePoint time{};
  DependencySet dependencies;
  std::vector<net::NodeId> updated;  ///< switches updated at this step
};

struct ScheduleResult {
  ScheduleStatus status = ScheduleStatus::kInfeasible;
  timenet::UpdateSchedule schedule;
  std::vector<StepLog> steps;
  std::string message;
  /// The exact guard checked every step of this complete schedule, so it
  /// is congestion- and loop-free. Never set in pure mode.
  bool verified = false;

  bool feasible() const { return status == ScheduleStatus::kFeasible; }
};

struct GreedyOptions {
  /// Check each accepted update with the exact verifier (Theorem 3 guard).
  bool guard_with_verifier = true;

  /// When no safe sequence exists, still emit a schedule that completes the
  /// update (used by the Fig. 7/8 evaluation, where infeasible instances
  /// are executed anyway and their congestion is measured).
  bool force_complete = false;

  /// Consecutive no-progress steps tolerated before declaring infeasibility;
  /// 0 = automatic (the drain bound: longest possible trajectory duration).
  std::int64_t stall_limit = 0;

  /// Record per-step dependency sets in the result (costs memory; on by
  /// default for explainability, off for the large Fig. 10 runs).
  bool record_steps = true;
};

ScheduleResult greedy_schedule(const net::UpdateInstance& inst,
                               const GreedyOptions& opts = {});

}  // namespace chronus::core
