// Heuristic schedulers beyond the paper's greedy — the paper closes with
// "we plan to continue our study by investigating approximation
// algorithms"; these are two practical steps in that direction. Both run
// the guarded greedy_schedule loop with their own per-step head order
// (HeadOrder), so they emit verified (congestion- and loop-free) schedules
// only and report the greedy's messages and greedy.* counters.
//
//  * chain_priority_schedule — critical-path greedy: per time step the
//    dependency-chain heads are tried longest-chain-first (the switches
//    holding back the most downstream work move first), instead of the
//    paper's id order.
//  * randomized_restart_schedule — the same greedy loop with randomized
//    head order, restarted R times; returns the best (shortest-makespan)
//    feasible schedule found. Randomized tie-breaking escapes the
//    commit-traps a deterministic order falls into, so it both shortens
//    makespans and recovers some instances the deterministic greedy
//    declares infeasible.
#pragma once

#include "core/greedy_scheduler.hpp"
#include "net/instance.hpp"
#include "util/rng.hpp"

namespace chronus::core {

/// Longest-dependency-chain-first greedy (deterministic).
ScheduleResult chain_priority_schedule(const net::UpdateInstance& inst);

struct RestartOptions {
  int restarts = 16;
};

/// Best feasible schedule across `restarts` randomized greedy runs.
ScheduleResult randomized_restart_schedule(const net::UpdateInstance& inst,
                                           util::Rng& rng,
                                           const RestartOptions& opts = {});

/// Post-optimization: pulls every update as early as the exact semantics
/// allow, switch by switch in ascending scheduled order, until a fixpoint.
/// The result is clean whenever the input is, never has a larger makespan,
/// and is normalized to start at time 0. Throws std::invalid_argument when
/// the input schedule is not congestion- and loop-free.
timenet::UpdateSchedule tighten_schedule(const net::UpdateInstance& inst,
                                         const timenet::UpdateSchedule& sched);

}  // namespace chronus::core
