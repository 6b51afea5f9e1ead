#include "core/heuristics.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/dependency.hpp"
#include "core/loop_check.hpp"
#include "timenet/transition_state.hpp"
#include "timenet/verifier.hpp"

#include <stdexcept>

namespace chronus::core {

namespace {

/// One guarded greedy run with a caller-chosen per-step head order.
/// `order` receives the dependency set and fills the head list to try.
ScheduleResult greedy_with_order(
    const net::UpdateInstance& inst,
    const std::function<std::vector<net::NodeId>(const DependencySet&)>&
        order) {
  ScheduleResult res;
  std::vector<net::NodeId> pending = inst.switches_to_update();
  if (pending.empty()) {
    res.status = ScheduleStatus::kFeasible;
    res.verified = true;
    return res;
  }

  const net::Graph& g = inst.graph();
  const std::int64_t stall_limit = timenet::trajectory_bound(g) + 2;

  std::vector<std::uint8_t> live(g.node_count(), 0);
  for (const net::NodeId v : pending) live[v] = 1;
  DependencyTable alg3(inst, pending);
  timenet::TransitionState state(inst);
  Algorithm4Context alg4(inst);
  timenet::TimePoint t{};
  std::int64_t stall = 0;

  while (!pending.empty()) {
    const DependencySet deps = alg3.build(pending, live);
    if (deps.has_cycle) {
      res.status = ScheduleStatus::kInfeasible;
      res.message = "dependency cycle";
      return res;
    }
    alg4.begin_step();
    bool progressed = false;
    for (const net::NodeId head : order(deps)) {
      if (alg4.loops(head, t)) continue;
      if (!state.try_update(head, t)) continue;
      res.schedule.set(head, t);
      alg4.note_update(head, t);
      live[head] = 0;
      progressed = true;
    }
    std::erase_if(pending, [&](net::NodeId v) { return !live[v]; });
    if (pending.empty()) break;
    ++t;
    stall = progressed ? 0 : stall + 1;
    if (stall > stall_limit) {
      res.status = ScheduleStatus::kInfeasible;
      res.message = "no progress within the drain bound";
      return res;
    }
  }
  res.status = ScheduleStatus::kFeasible;
  res.verified = true;  // every step passed the TransitionState guard
  return res;
}

}  // namespace

ScheduleResult chain_priority_schedule(const net::UpdateInstance& inst) {
  return greedy_with_order(inst, [](const DependencySet& deps) {
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
    ScheduleResult candidate =
        greedy_with_order(inst, [&run_rng, r](const DependencySet& deps) {
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
