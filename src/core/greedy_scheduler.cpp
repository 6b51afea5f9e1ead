#include "core/greedy_scheduler.hpp"

#include <algorithm>
#include <optional>

#include "core/loop_check.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "timenet/transition_state.hpp"
#include "timenet/verifier.hpp"
#include "util/contracts.hpp"

namespace chronus::core {

namespace {

/// Per-invocation tallies, flushed once on every exit path (greedy.* in
/// DESIGN.md §11). Aggregating locally keeps the scheduler's hot loop free
/// of atomic traffic even when metrics are enabled.
struct GreedyTally {
  std::uint64_t rounds = 0;
  std::uint64_t dep_rebuilds = 0;
  std::uint64_t heads_expanded = 0;
  std::uint64_t updates = 0;
  bool infeasible = false;

  ~GreedyTally() {
    if (obs::registry() == nullptr) return;
    obs::add("greedy.calls");
    obs::add("greedy.rounds", rounds);
    obs::add("greedy.dep_rebuilds", dep_rebuilds);
    obs::add("greedy.heads_expanded", heads_expanded);
    obs::add("greedy.updates", updates);
    if (infeasible) obs::add("greedy.infeasible");
  }
};

/// Completes a schedule that has no safe continuation: remaining switches
/// are updated one per step, preferring loop-free candidates. Used when the
/// evaluation requires the transition to finish regardless (Figs. 7/8 count
/// the congestion such forced updates produce). `alg4` has every update of
/// `schedule` noted.
void complete_best_effort(std::vector<net::NodeId>& pending,
                          Algorithm4Context& alg4,
                          timenet::UpdateSchedule& schedule,
                          timenet::TimePoint t) {
  while (!pending.empty()) {
    alg4.begin_step();
    const auto loop_free = [&](net::NodeId v) { return !alg4.loops(v, t); };
    auto chosen = std::find_if(pending.begin(), pending.end(), loop_free);
    if (chosen == pending.end()) chosen = pending.begin();
    schedule.set(*chosen, t);
    alg4.note_update(*chosen, t);
    pending.erase(chosen);
    ++t;
  }
}

}  // namespace

ScheduleResult greedy_schedule(const net::UpdateInstance& inst,
                               const GreedyOptions& opts) {
  return greedy_schedule(inst, opts, HeadOrder{});
}

ScheduleResult greedy_schedule(const net::UpdateInstance& inst,
                               const GreedyOptions& opts,
                               const HeadOrder& order) {
  CHRONUS_SPAN("greedy.schedule");
  GreedyTally tally;
  ScheduleResult res;
  // Pending switches in ascending id order, plus a live flag per node that
  // an accepted head clears; the list is compacted once per step.
  // chronus-analyzer: allow(hot-alloc) once per call, compacted in place
  std::vector<net::NodeId> pending = inst.switches_to_update();
  if (pending.empty()) {
    res.status = ScheduleStatus::kFeasible;
    res.message = "nothing to update";
    res.verified = opts.guard_with_verifier;
    return res;
  }

  const net::Graph& g = inst.graph();
  const std::int64_t stall_limit = opts.stall_limit > 0
                                        ? opts.stall_limit
                                        : timenet::trajectory_bound(g) + 2;

  // chronus-analyzer: allow(hot-alloc) per-call live flags, one byte per node
  std::vector<std::uint8_t> live(g.node_count(), 0);
  for (const net::NodeId v : pending) live[v] = 1;
  DependencyTable alg3(inst, pending);
  // chronus-analyzer: allow(hot-alloc) per-call head buffer, reused every step
  std::vector<net::NodeId> heads;
  timenet::TimePoint t{};
  std::int64_t stall = 0;
  Algorithm4Context alg4(inst);  // batched checks, folded in once per step
  // Incremental checks, guarded mode only: the pure greedy (Fig. 10 scale)
  // never probes it.
  std::optional<timenet::TransitionState> state;
  if (opts.guard_with_verifier) state.emplace(inst);
  bool settled = false;  // every probe from here on repeats a rejection

  auto fail = [&](const std::string& why) {
    tally.infeasible = true;
    res.message = why;
    if (opts.force_complete) {
      complete_best_effort(pending, alg4, res.schedule, t + 1);
      res.status = ScheduleStatus::kBestEffort;
    } else {
      res.status = ScheduleStatus::kInfeasible;
    }
    return res;
  };

  while (!pending.empty()) {
    ++tally.rounds;
    StepLog log;
    log.time = t;
    bool has_cycle = false;
    if (opts.record_steps || order) {
      log.dependencies = alg3.build(pending, live);
      has_cycle = log.dependencies.has_cycle;
    } else {
      has_cycle = alg3.heads(pending, live, heads);
    }
    ++tally.dep_rebuilds;

    if (has_cycle) {
      if (opts.record_steps) res.steps.push_back(std::move(log));
      return fail("dependency cycle at t=" + std::to_string(t.count()));
    }
    if (order) {
      heads = order(log.dependencies);
    } else if (opts.record_steps) {
      heads = log.dependencies.heads();
    }

    alg4.begin_step();
    bool progressed = false;
    for (const net::NodeId head : heads) {  // ascending id unless ordered
      ++tally.heads_expanded;
      // The O(1) Algorithm 4 verdict first: a positive proves a concrete
      // in-flight class would revisit a switch, sparing the probe.
      if (alg4.loops(head, t)) continue;
      // One incremental probe covers both the loop-free and the
      // congestion-free condition (and applies the update on success).
      if (settled || (state && !state->try_update(head, t))) continue;
      res.schedule.set(head, t);
      alg4.note_update(head, t);
      live[head] = 0;
      if (opts.record_steps) log.updated.push_back(head);
      ++tally.updates;
      progressed = true;
    }
    std::erase_if(pending, [&](net::NodeId v) { return !live[v]; });

    if (opts.record_steps) res.steps.push_back(std::move(log));
    if (pending.empty()) break;

    // A stalled round at or after the settle time repeats forever: the
    // probes' verdicts repeat by definition, and so do Alg. 4's, since
    // the old-path class its in-flight check fears is a traced class,
    // which arrives before the settle time.
    if (state && !progressed && !settled) settled = t >= state->settle_time();
    ++t;
    stall = progressed ? 0 : stall + 1;
    if (stall > stall_limit) {
      return fail("no progress for " + std::to_string(stall) +
                  " steps (drain bound exceeded)");
    }
  }

  res.status = ScheduleStatus::kFeasible;
  res.verified = opts.guard_with_verifier;
  CHRONUS_ENSURES(res.schedule.size() == inst.switches_to_update().size(),
                  "a feasible plan schedules every switch exactly once");
  CHRONUS_ENSURES(res.schedule.first_time() >= timenet::TimePoint{0} &&
                      res.schedule.last_time() <= t,
                  "greedy schedule stays within the steps it walked");
  // Guarded mode proved every step clean incrementally; under audit builds
  // re-verify the whole transition from scratch. The re-verify runs with
  // metrics muted: contract checks must not perturb the logical metric
  // stream, or replay/golden comparisons would depend on the build preset.
  CHRONUS_AUDIT_ENSURES(
      !opts.guard_with_verifier || [&] {
        const obs::MetricsMute mute;
        return timenet::verify_transition(inst, res.schedule).ok();
      }(),
      "guarded greedy emitted a schedule the verifier rejects");
  return res;
}

}  // namespace chronus::core
