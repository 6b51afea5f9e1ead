#include "opt/mutp_bnb.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "opt/search_state.hpp"
#include "timenet/transition_state.hpp"
#include "timenet/verifier.hpp"
#include "util/stopwatch.hpp"

namespace chronus::opt {

namespace {

bool is_clean(const net::UpdateInstance& inst,
              const timenet::UpdateSchedule& sched, double deadline_sec) {
  timenet::VerifyOptions vo;
  vo.first_violation_only = true;
  vo.deadline_sec = deadline_sec;
  const auto report = verify_transition(inst, sched, vo);
  return !report.aborted && report.ok();
}

// Search state (opt/search_state.hpp): a flat sorted pending set,
// per-depth candidate lists and a dominance memo under binary keys.
using Pending = search_state::SortedNodeVec;
// chronus-analyzer: allow(hot-alloc) one list per search depth, reused
using CandVec = std::vector<net::NodeId>;

struct Memo {
  std::int64_t drain = 0;
  std::string key;  // reused scratch; contents rebuilt per probe
  // chronus-analyzer: allow(hot-alloc) one memo per solve, an entry per state
  std::map<std::string, timenet::TimePoint> memo;

  /// True if an at-least-as-early visit of this state is memoized;
  /// records the visit otherwise.
  bool probe(timenet::TimePoint t, const timenet::UpdateSchedule& sched,
             const Pending& pending) {
    key.clear();
    for (const net::NodeId v : pending) search_state::append_u32(key, v);
    search_state::append_u32(key, search_state::kKeySeparator);
    // Updates older than the drain bound cannot influence any class that
    // is still in flight; only the recent update pattern (relative to t)
    // matters for the remaining subproblem.
    for (const auto& [v, tv] : sched.entries()) {
      if (tv >= t - drain) {
        search_state::append_u32(key, v);
        search_state::append_u64(key, static_cast<std::uint64_t>(t - tv));
      }
    }
    const auto it = memo.find(key);
    if (it != memo.end()) {
      if (it->second <= t) return true;
      it->second = t;
      return false;
    }
    memo.emplace(key, t);
    return false;
  }
};

struct Search {
  timenet::TransitionState* state = nullptr;
  util::Deadline deadline{0};
  int max_candidates = 16;

  std::int64_t incumbent = std::numeric_limits<std::int64_t>::max();
  timenet::UpdateSchedule best;
  bool found = false;
  bool timed_out = false;
  bool truncated = false;
  std::uint64_t nodes = 0;
  std::uint64_t prunes = 0;
  std::uint64_t memo_hits = 0;
  // Incumbent improvements found *inside* the search; the greedy seed is
  // excluded so mutp.nodes_visited >= mutp.incumbent_updates always holds
  // (property-tested in tests/property_test.cpp).
  std::uint64_t incumbent_updates = 0;
  Memo memo;
  search_state::DepthSlots<CandVec> cands;

  void dfs(timenet::TimePoint t, std::size_t depth, Pending& pending);
  void branch(timenet::TimePoint t, std::size_t depth, Pending& pending,
              const CandVec& cand, std::size_t idx);
};

void Search::dfs(timenet::TimePoint t, std::size_t depth, Pending& pending) {
  if (timed_out || deadline.expired()) {
    timed_out = true;
    return;
  }
  ++nodes;
  const timenet::UpdateSchedule& sched = state->schedule();
  if (pending.empty()) {
    const std::int64_t makespan =
        sched.empty() ? 0 : sched.last_time().count() + 1;
    if (makespan < incumbent) {
      incumbent = makespan;
      best = sched;
      found = true;
      ++incumbent_updates;
    }
    return;
  }
  // Any completion still updates a switch at >= t, so makespan >= t + 1.
  if (t.count() + 1 >= incumbent) {
    ++prunes;
    return;
  }

  if (memo.probe(t, sched, pending)) {
    ++memo_hits;
    return;
  }

  CandVec& cand = cands.at_depth(depth);
  for (const net::NodeId v : pending) {
    if (deadline.expired()) {  // candidate checks dominate at large n
      timed_out = true;
      return;
    }
    if (state->try_update(v, t)) {
      cand.push_back(v);
      state->undo();
    }
  }
  if (static_cast<int>(cand.size()) > max_candidates) {
    truncated = true;
    cand.resize(static_cast<std::size_t>(max_candidates));
  }
  branch(t, depth, pending, cand, 0);
}

void Search::branch(timenet::TimePoint t, std::size_t depth, Pending& pending,
                    const CandVec& cand, std::size_t idx) {
  if (timed_out || deadline.expired()) {
    timed_out = true;
    return;
  }
  if (idx == cand.size()) {
    // Waiting before the very first update only shifts the schedule; skip.
    if (state->schedule().empty()) return;
    dfs(t + 1, depth + 1, pending);
    return;
  }
  const net::NodeId v = cand[idx];
  // Include v (checked jointly with the already-included candidates) first:
  // maximizing per-step parallelism finds strong incumbents early.
  if (state->try_update(v, t)) {
    pending.erase(v);
    branch(t, depth, pending, cand, idx + 1);
    pending.insert(v);
    state->undo();
  }
  branch(t, depth, pending, cand, idx + 1);
}

}  // namespace

MutpResult solve_mutp(const net::UpdateInstance& inst,
                      const MutpOptions& opts) {
  CHRONUS_SPAN("mutp.solve");
  MutpResult res;
  const auto to_update = inst.switches_to_update();
  if (to_update.empty()) {
    res.status = core::ScheduleStatus::kFeasible;
    res.proved_optimal = true;
    res.message = "nothing to update";
    return res;
  }

  const net::Graph& g = inst.graph();
  const std::int64_t drain = timenet::trajectory_bound(g);

  // Greedy incumbent: bounds the search and survives timeouts. The pure
  // (unguarded) greedy is tried first — it is the only variant that scales
  // to the Fig. 10 sizes — and its schedule is accepted after one exact
  // verification; the guarded greedy is the fallback on small instances.
  core::GreedyOptions fast;
  fast.record_steps = false;
  fast.guard_with_verifier = false;
  core::ScheduleResult greedy = core::greedy_schedule(inst, fast);
  // The incumbent's single validation pass gets a small floor so that a
  // micro-timeout (used to probe timeout behaviour) does not discard an
  // easily-verified incumbent on small instances.
  const double validate_budget =
      opts.timeout_sec > 0 ? std::max(opts.timeout_sec, 0.1) : 0.0;
  const bool fast_clean =
      greedy.feasible() && is_clean(inst, greedy.schedule, validate_budget);
  if (!fast_clean && to_update.size() <= 200) {
    core::GreedyOptions guarded;
    guarded.record_steps = false;
    greedy = core::greedy_schedule(inst, guarded);
  }
  const bool seeded =
      greedy.feasible() &&
      (fast_clean || is_clean(inst, greedy.schedule, validate_budget));

  Search s;
  s.deadline = util::Deadline(opts.timeout_sec);
  s.max_candidates = opts.max_candidates_exact;
  s.memo.drain = drain;
  if (seeded) {
    s.found = true;
    s.incumbent =
        greedy.schedule.empty() ? 0 : greedy.schedule.last_time().count() + 1;
    s.best = std::move(greedy.schedule);
  } else {
    // Horizon cap: beyond this every in-flight class has drained twice over;
    // a schedule longer than it gains nothing.
    s.incumbent = 2 * drain + static_cast<std::int64_t>(to_update.size()) + 2;
  }
  timenet::TransitionState state(inst);
  s.state = &state;
  Pending pending;
  pending.assign_sorted(to_update.begin(), to_update.end());
  if (s.deadline.expired()) {
    s.timed_out = true;  // a micro-timeout can expire before the first node
  } else {
    s.dfs(timenet::TimePoint{0}, 0, pending);
  }

  obs::add("mutp.calls");
  obs::add("mutp.nodes_visited", s.nodes);
  obs::add("mutp.prunes", s.prunes);
  obs::add("mutp.memo_hits", s.memo_hits);
  obs::add("mutp.incumbent_updates", s.incumbent_updates);
  if (s.timed_out) obs::add("mutp.timeouts");

  res.timed_out = s.timed_out;
  res.nodes_explored = s.nodes;
  if (s.found) {
    res.status = core::ScheduleStatus::kFeasible;
    res.makespan = s.best.empty() ? 0 : s.best.last_time().count() + 1;
    res.schedule = std::move(s.best);
    res.proved_optimal = !s.timed_out && !s.truncated;
    if (s.truncated) res.message = "branching truncated (candidate cap)";
    if (s.timed_out) res.message = "deadline hit; incumbent returned";
    return res;
  }

  res.message = s.timed_out ? "deadline hit; no feasible schedule found"
                            : "no congestion- and loop-free schedule exists";
  if (opts.force_complete) {
    core::GreedyOptions forced;
    forced.record_steps = false;
    forced.force_complete = true;
    const core::ScheduleResult be = core::greedy_schedule(inst, forced);
    res.schedule = be.schedule;
    res.makespan = be.schedule.empty() ? 0 : be.schedule.last_time().count() + 1;
    res.status = core::ScheduleStatus::kBestEffort;
  }
  return res;
}

}  // namespace chronus::opt
