#include "core/feasibility_tree.hpp"

#include <algorithm>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "timenet/transition_state.hpp"

namespace chronus::core {

namespace {

/// A candidate move of Algorithm 1: a contiguous run of pending p_fin
/// switches (or a single redirect switch) updated simultaneously, whose
/// last dashed edge points into the stable region — "the outgoing dashed
/// line points from one branch to the other" (§III). Updating interior
/// nodes of the segment together is the paper's line 25-26 ("for each node
/// z in p: update z at t").
using Segment = std::vector<net::NodeId>;

/// Applies the whole segment at t if every switch stays clean; otherwise
/// rolls the partial placement back.
bool place_segment(timenet::TransitionState& state, const Segment& seg,
                   timenet::TimePoint t) {
  std::size_t placed = 0;
  for (; placed < seg.size(); ++placed) {
    if (!state.try_update(seg[placed], t)) break;
  }
  if (placed == seg.size()) return true;
  while (placed-- > 0) state.undo();
  return false;
}

}  // namespace

FeasibilityResult tree_feasibility_check(const net::UpdateInstance& inst) {
  FeasibilityResult res;
  const net::Graph& g = inst.graph();
  const std::int64_t drain_bound = timenet::trajectory_bound(g) + 2;

  std::set<net::NodeId> pending;
  std::set<net::NodeId> updated;
  for (const net::NodeId v : inst.switches_to_update()) pending.insert(v);

  // A crossing move may only point into "the other branch": a switch whose
  // current forwarding chain (new rules where scheduled, old rules
  // otherwise) already reaches the destination.
  const auto reaches_destination = [&](net::NodeId from) {
    std::set<net::NodeId> seen;
    net::NodeId at = from;
    while (seen.insert(at).second) {
      if (at == inst.destination()) return true;
      const auto next = updated.count(at) ? inst.new_next(at) : inst.old_next(at);
      if (!next) return false;
      at = *next;
    }
    return false;  // cycle
  };

  const net::Path& fin = inst.p_fin();
  const net::Path& init = inst.p_init();

  // Candidate moves at the current configuration, in Algorithm 1's order:
  // crossings nearest the destination first, minimal segments first.
  const auto candidates = [&] {
    std::vector<Segment> moves;
    for (std::size_t e = fin.size() - 1; e-- > 0;) {
      if (!pending.count(fin[e])) continue;
      const auto target = inst.new_next(fin[e]);
      if (!target || !reaches_destination(*target)) continue;
      // Segments [s..e] of consecutive pending p_fin switches.
      for (std::size_t s = e + 1; s-- > 0;) {
        if (!pending.count(fin[s])) break;
        Segment seg;
        for (std::size_t k = s; k <= e; ++k) seg.push_back(fin[k]);
        moves.push_back(std::move(seg));
      }
    }
    // Redirect switches on the old branch only, destination-first.
    for (std::size_t k = init.size() - 1; k-- > 0;) {
      const net::NodeId v = init[k];
      if (!pending.count(v) || fin.contains(v)) continue;
      const auto target = inst.new_next(v);
      if (target && reaches_destination(*target)) moves.push_back(Segment{v});
    }
    return moves;
  };

  timenet::TransitionState state(inst);
  timenet::TimePoint t{};
  std::int64_t stall = 0;
  while (!pending.empty()) {
    bool placed = false;
    for (const Segment& seg : candidates()) {
      if (!place_segment(state, seg, t)) continue;
      for (const net::NodeId v : seg) {
        res.witness.set(v, t);
        pending.erase(v);
        updated.insert(v);
      }
      placed = true;
      break;
    }
    ++t;
    stall = placed ? 0 : stall + 1;
    if (stall > drain_bound) {
      // The sweep committed to a crossing that forecloses the rest (it is
      // greedy and does not backtrack). Fall back to the Algorithm 2
      // dependency mechanism, which orders crossings by the capacity
      // relations instead of by branch position; feasibility holds if
      // either procedure completes (both only emit verified witnesses).
      GreedyOptions gopts;
      gopts.record_steps = false;
      const ScheduleResult greedy = greedy_schedule(inst, gopts);
      if (greedy.feasible()) {
        res.feasible = true;
        res.witness = greedy.schedule;
        res.message = "via dependency-ordered fallback";
        return res;
      }
      // Theorem 2: under identical delays, a move that cannot be placed
      // once all in-flight traffic drained cannot be placed later either.
      res.feasible = false;
      res.failed_switch = *pending.begin();
      res.message = "no safe crossing move for any of " +
                    std::to_string(pending.size()) + " pending switches";
      return res;
    }
  }
  res.feasible = true;
  return res;
}

}  // namespace chronus::core
