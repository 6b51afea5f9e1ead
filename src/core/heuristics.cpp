#include "core/heuristics.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/dependency.hpp"
#include "timenet/verifier.hpp"

namespace chronus::core {

/// The guarded greedy as the heuristics run it: no step logs.
constexpr GreedyOptions kHeuristicRun{.record_steps = false};

ScheduleResult chain_priority_schedule(const net::UpdateInstance& inst) {
  return greedy_schedule(inst, kHeuristicRun, [](const DependencySet& deps) {
    // Heads of longer chains hold back more downstream switches: move
    // them first (critical-path order); break ties by id.
    std::vector<std::pair<std::size_t, net::NodeId>> ranked;
    for (const auto& chain : deps.chains) {
      if (!chain.empty()) ranked.emplace_back(chain.size(), chain.front());
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    std::vector<net::NodeId> heads;
    heads.reserve(ranked.size());
    for (const auto& [_, v] : ranked) heads.push_back(v);
    return heads;
  });
}

ScheduleResult randomized_restart_schedule(const net::UpdateInstance& inst,
                                           util::Rng& rng,
                                           const RestartOptions& opts) {
  ScheduleResult best;
  best.status = ScheduleStatus::kInfeasible;
  best.message = "no feasible schedule in any restart";
  for (int r = 0; r < opts.restarts; ++r) {
    util::Rng run_rng = rng.fork(static_cast<std::uint64_t>(r));
    // Restart 0 replays the deterministic id order, so the result is never
    // worse than the plain greedy; later restarts shuffle the heads.
    ScheduleResult candidate = greedy_schedule(
        inst, kHeuristicRun, [&run_rng, r](const DependencySet& deps) {
          std::vector<net::NodeId> heads = deps.heads();
          if (r == 0) {
            std::sort(heads.begin(), heads.end());
          } else {
            run_rng.shuffle(heads);
          }
          return heads;
        });
    if (!candidate.feasible()) continue;
    if (!best.feasible() ||
        candidate.schedule.step_span() < best.schedule.step_span()) {
      best = std::move(candidate);
    }
  }
  return best;
}

timenet::UpdateSchedule tighten_schedule(const net::UpdateInstance& inst,
                                         const timenet::UpdateSchedule& sched) {
  const auto clean = [&](const timenet::UpdateSchedule& s) {
    timenet::VerifyOptions vo;
    vo.first_violation_only = true;
    return verify_transition(inst, s, vo).ok();
  };
  if (!clean(sched)) {
    throw std::invalid_argument("tighten_schedule: input schedule is unsafe");
  }
  // Normalize to start at 0 (the model is shift-invariant).
  timenet::UpdateSchedule current;
  if (sched.empty()) return current;
  const timenet::TimePoint base = sched.first_time();
  for (const auto& [v, t] : sched.entries()) {
    current.set(v, timenet::TimePoint{t - base});
  }

  // Pull each switch to its earliest safe slot, ascending by current time;
  // moving one switch earlier can unlock another, so iterate to fixpoint.
  // Feasibility is not monotone in the probed time (entry collisions occur
  // at specific alignments), hence the linear scan from 0.
  // Each iteration performs one move and strictly decreases the sum of
  // update times, so n * span bounds the total number of moves.
  bool changed = true;
  std::size_t moves = 0;
  const std::size_t move_cap =
      current.size() * static_cast<std::size_t>(current.step_span() + 1);
  while (changed && moves++ <= move_cap) {
    changed = false;
    for (const auto& [t, switches] : current.by_time()) {
      for (const net::NodeId v : switches) {
        for (timenet::TimePoint earlier{}; earlier < t; ++earlier) {
          timenet::UpdateSchedule candidate = current;
          candidate.set(v, earlier);
          if (clean(candidate)) {
            current = std::move(candidate);
            changed = true;
            break;
          }
        }
      }
      if (changed) break;  // by_time() is stale after a move
    }
  }
  return current;
}

}  // namespace chronus::core
