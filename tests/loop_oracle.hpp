// Reference loop checks, kept as test oracles. The library asks Algorithm 4
// through the batched core::Algorithm4Context and settles every accepted
// update with the exact incremental timenet::TransitionState; these
// per-call forms are slow and obviously correct:
//
// * current_next / current_forwarding_path: the *current configuration* of
//   a transition, the mix of switches already updated (forwarding with
//   their new rule) and pending switches (still forwarding with their old
//   rule), and the path newly injected packets take through it.
// * exact_loop_check: tentatively applies the candidate update and traces
//   every injection class that can still be in flight (plus one
//   representative future class); any revisited switch is a Definition-2
//   violation. This is the time-extended search the paper describes, made
//   exhaustive.
// * structural_loop_check: the paper's upstream walk in literal form —
//   updating v loops iff v's new next hop lies upstream of v on the
//   forwarding path the in-flight flow has taken. It ignores timing, so it
//   both over- and under-rejects (DESIGN.md §6, finding 3).
//
// tests/loop_oracle_test.cpp holds Algorithm4Context's positives to the
// exact check's and shows the structural walk over-rejecting;
// tests/greedy_oracle.hpp walks current_forwarding_path.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/instance.hpp"
#include "net/path.hpp"
#include "timenet/schedule.hpp"
#include "timenet/trajectory.hpp"

namespace chronus::core::oracle {

/// Next hop of v in the current configuration.
inline std::optional<net::NodeId> current_next(
    const net::UpdateInstance& inst, const std::set<net::NodeId>& updated,
    net::NodeId v) {
  return updated.count(v) ? inst.new_next(v) : inst.old_next(v);
}

/// The forwarding path newly injected packets take from the source under
/// the current configuration. nullopt if the configuration loops or
/// blackholes (then there is no steady path).
inline std::optional<net::Path> current_forwarding_path(
    const net::UpdateInstance& inst, const std::set<net::NodeId>& updated) {
  std::vector<net::NodeId> nodes;
  std::unordered_set<net::NodeId> seen;
  net::NodeId at = inst.source();
  const net::NodeId dst = inst.destination();
  while (true) {
    if (!seen.insert(at).second) return std::nullopt;  // loop
    nodes.push_back(at);
    if (at == dst) return net::Path(std::move(nodes));
    const auto next = current_next(inst, updated, at);
    if (!next || !inst.graph().has_link(at, *next)) return std::nullopt;
    at = *next;
  }
}

/// True iff updating `v` at time `t`, on top of `scheduled`, makes some
/// in-flight or future injection class revisit a switch.
inline bool exact_loop_check(const net::UpdateInstance& inst,
                             const timenet::UpdateSchedule& scheduled,
                             net::NodeId v, timenet::TimePoint t) {
  const net::Graph& g = inst.graph();
  timenet::RuleTable rules(g, inst);
  rules.set_schedule(scheduled);
  rules.set_update(v, t);  // the tentative update
  timenet::Tracer tracer(g.node_count());

  const std::int64_t span = timenet::trajectory_bound(g);
  // Classes injected before t - span pass every switch before t and are
  // unaffected by this update; classes injected at >= t all see the same
  // (final, static) configuration, so tracing one representative suffices.
  for (timenet::TimePoint tau = t - span; tau <= t + 1; ++tau) {
    if (tracer.run(rules, tau).looped()) return true;
  }
  return false;
}

/// The purely structural upstream walk (a naive reading of Algorithm 4):
/// true iff v's new next hop lies upstream of v on the current forwarding
/// path (or the old path, when v carries no live flow).
inline bool structural_loop_check(const net::UpdateInstance& inst,
                                  const std::set<net::NodeId>& updated,
                                  net::NodeId v) {
  const auto new_next = inst.new_next(v);
  if (!new_next) return false;
  const auto path = current_forwarding_path(inst, updated);
  if (!path) return true;  // configuration already loops; be conservative
  const auto pos_v = path->index_of(v);
  if (pos_v == net::Path::npos) {
    // No flow is routed through v in the current configuration, but
    // in-flight classes may still traverse the old path through v. Walk the
    // old path upstream of v instead.
    const auto old_pos = inst.p_init().index_of(v);
    if (old_pos == net::Path::npos) return false;
    for (std::size_t i = 0; i < old_pos; ++i) {
      if (inst.p_init()[i] == *new_next) return true;
    }
    return false;
  }
  // v carries flow: loop iff the new next hop lies upstream on the path the
  // flow took to reach v.
  const auto pos_next = path->index_of(*new_next);
  return pos_next != net::Path::npos && pos_next < pos_v;
}

}  // namespace chronus::core::oracle
