// Map-based reference implementations of Algorithms 2-4: find_dependencies
// rebuilt anew each round over std::set / std::map, the hash-map
// Algorithm 4 context that snapshots the forwarding path and the p_init
// update times through UpdateSchedule::at at every step, and the Alg. 2
// loop over std::set pending / updated sets that drives them. Slow and
// obviously correct. The library runs the same algorithms over dense
// per-call storage (DependencyTable and the incremental Algorithm4Context
// in src/core); tests/greedy_differential_test.cpp holds it to these field
// by field.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dependency.hpp"
#include "core/greedy_scheduler.hpp"
#include "loop_oracle.hpp"
#include "timenet/transition_state.hpp"

namespace chronus::core::oracle {

/// Algorithm 3 for one round: every relation derived again from the
/// instance, the include flags in a std::set, chains emitted from a
/// std::map of successor lists.
inline DependencySet find_dependencies(const net::UpdateInstance& inst,
                                       const std::set<net::NodeId>& updated,
                                       const std::set<net::NodeId>& pending) {
  DependencySet out;
  const net::Path& p_init = inst.p_init();
  const net::Demand need = 2.0 * inst.demand();

  std::unordered_map<net::NodeId, std::size_t> init_pos;
  for (std::size_t i = 0; i < p_init.size(); ++i) init_pos[p_init[i]] = i;

  // precedes[b] = a  <=>  relation (a -> b): a must update before b.
  std::map<net::NodeId, net::NodeId> precedes;
  std::set<net::NodeId> included;  // the include flags of Algorithm 3

  for (const net::NodeId vi : pending) {  // ascending id, like the paper
    if (included.count(vi)) continue;
    const auto v_opt = inst.new_next(vi);
    if (!v_opt) continue;
    const net::NodeId v = *v_opt;
    if (v == inst.destination()) continue;  // no capacity beyond the sink
    const auto pos_it = init_pos.find(v);
    const std::size_t pos =
        pos_it == init_pos.end() ? net::Path::npos : pos_it->second;
    const net::NodeId v_bar =
        (pos != net::Path::npos && pos > 0) ? p_init[pos - 1]
                                            : net::kInvalidNode;
    const net::NodeId v_tilde =
        (pos != net::Path::npos && pos + 1 < p_init.size()) ? p_init[pos + 1]
                                                            : net::kInvalidNode;
    if (v_bar == net::kInvalidNode || v_tilde == net::kInvalidNode) continue;
    if (v_bar == vi) continue;
    if (updated.count(v_bar) || !pending.count(v_bar)) continue;
    if (inst.graph().capacity(v, v_tilde) + net::Demand{1e-9} >= need) {
      continue;
    }
    precedes[vi] = v_bar;
    included.insert(vi);
    included.insert(v_bar);
  }

  std::map<net::NodeId, std::vector<net::NodeId>> successors;
  for (const auto& [b, a] : precedes) successors[a].push_back(b);

  std::set<net::NodeId> emitted;
  for (const net::NodeId v : pending) {
    if (precedes.count(v) || emitted.count(v)) continue;
    std::vector<net::NodeId> chain;
    std::vector<net::NodeId> stack{v};
    while (!stack.empty()) {
      const net::NodeId x = stack.back();
      stack.pop_back();
      if (!emitted.insert(x).second) continue;
      chain.push_back(x);
      const auto it = successors.find(x);
      if (it != successors.end()) {
        for (auto r = it->second.rbegin(); r != it->second.rend(); ++r) {
          stack.push_back(*r);
        }
      }
    }
    out.chains.push_back(std::move(chain));
  }

  for (const net::NodeId v : pending) {
    if (!emitted.count(v)) {
      out.has_cycle = true;
      break;
    }
  }
  return out;
}

/// Algorithm 4 as a per-step snapshot: begin_step() rebuilds the current
/// path's position map and every p_init prefix bound from the given sets.
class Algorithm4Context {
 public:
  /// loops() calls so far (what the library counts as
  /// loopcheck.invocations).
  mutable std::uint64_t invocations = 0;

  explicit Algorithm4Context(const net::UpdateInstance& inst) : inst_(&inst) {
    const net::Path& p_init = inst.p_init();
    const net::Graph& g = inst.graph();
    init_prefix_delay_.resize(p_init.size(), 0);
    for (std::size_t i = 0; i < p_init.size(); ++i) {
      init_pos_[p_init[i]] = i;
      if (i + 1 < p_init.size()) {
        init_prefix_delay_[i + 1] =
            init_prefix_delay_[i] + g.delay(p_init[i], p_init[i + 1]);
      }
    }
  }

  void begin_step(const std::set<net::NodeId>& updated,
                  const timenet::UpdateSchedule& scheduled) {
    cur_pos_.clear();
    const auto path = current_forwarding_path(*inst_, updated);
    if (path) {
      for (std::size_t i = 0; i < path->size(); ++i) cur_pos_[(*path)[i]] = i;
    }
    const net::Path& p_init = inst_->p_init();
    tau_max_prefix_.assign(p_init.size(),
                           std::numeric_limits<timenet::TimePoint>::max());
    for (std::size_t i = 1; i < p_init.size(); ++i) {
      timenet::TimePoint bound = tau_max_prefix_[i - 1];
      const auto upd = scheduled.at(p_init[i - 1]);
      if (upd) bound = std::min(bound, *upd - init_prefix_delay_[i - 1] - 1);
      tau_max_prefix_[i] = bound;
    }
  }

  bool loops(net::NodeId v, timenet::TimePoint t) const {
    ++invocations;
    const auto new_next = inst_->new_next(v);
    if (!new_next) return false;
    const auto cv = cur_pos_.find(v);
    const auto cn = cur_pos_.find(*new_next);
    if (cv != cur_pos_.end() && cn != cur_pos_.end() &&
        cn->second < cv->second) {
      return true;
    }
    const auto iv = init_pos_.find(v);
    if (iv == init_pos_.end()) return false;
    const auto jn = init_pos_.find(*new_next);
    if (jn == init_pos_.end() || jn->second >= iv->second) return false;
    const std::size_t i = iv->second;
    return t - init_prefix_delay_[i] <= tau_max_prefix_[i];
  }

 private:
  const net::UpdateInstance* inst_;
  std::vector<net::Delay> init_prefix_delay_;
  std::unordered_map<net::NodeId, std::size_t> init_pos_;
  std::unordered_map<net::NodeId, std::size_t> cur_pos_;
  std::vector<timenet::TimePoint> tau_max_prefix_;
};

/// Algorithm 2 over std::set pending / updated, with the two oracles above
/// and the library's TransitionState as the guard, probed in every round
/// of a stall (the library stops probing once the stall settles).
/// `loop_checks`, when given, receives the number of Algorithm 4 queries
/// made.
inline ScheduleResult greedy_schedule(const net::UpdateInstance& inst,
                                      const GreedyOptions& opts = {},
                                      std::uint64_t* loop_checks = nullptr) {
  ScheduleResult res;
  std::set<net::NodeId> pending;
  for (const net::NodeId v : inst.switches_to_update()) pending.insert(v);
  if (pending.empty()) {
    res.status = ScheduleStatus::kFeasible;
    res.message = "nothing to update";
    res.verified = opts.guard_with_verifier;
    return res;
  }

  const net::Graph& g = inst.graph();
  const std::int64_t stall_limit =
      opts.stall_limit > 0
          ? opts.stall_limit
          : static_cast<std::int64_t>(g.node_count() + 2) * g.max_delay() + 2;

  std::set<net::NodeId> updated;
  timenet::TimePoint t{};
  std::int64_t stall = 0;
  Algorithm4Context alg4(inst);
  std::optional<timenet::TransitionState> state;
  if (opts.guard_with_verifier) state.emplace(inst);

  // Forced completion: one switch per step, the first loop-free one in id
  // order (else the first pending one).
  const auto complete_best_effort = [&](timenet::TimePoint at) {
    Algorithm4Context best_effort(inst);
    while (!pending.empty()) {
      best_effort.begin_step(updated, res.schedule);
      net::NodeId chosen = *pending.begin();
      for (const net::NodeId v : pending) {
        if (!best_effort.loops(v, at)) {
          chosen = v;
          break;
        }
      }
      res.schedule.set(chosen, at);
      pending.erase(chosen);
      updated.insert(chosen);
      ++at;
    }
    alg4.invocations += best_effort.invocations;
  };
  const auto tally = [&] {
    if (loop_checks != nullptr) *loop_checks = alg4.invocations;
  };
  const auto fail = [&](const std::string& why) {
    res.message = why;
    if (opts.force_complete) {
      complete_best_effort(t + 1);
      res.status = ScheduleStatus::kBestEffort;
    } else {
      res.status = ScheduleStatus::kInfeasible;
    }
    tally();
    return res;
  };

  while (!pending.empty()) {
    DependencySet deps = oracle::find_dependencies(inst, updated, pending);
    StepLog log;
    log.time = t;
    if (opts.record_steps) log.dependencies = deps;
    if (deps.has_cycle) {
      if (opts.record_steps) res.steps.push_back(std::move(log));
      return fail("dependency cycle at t=" + std::to_string(t.count()));
    }
    std::vector<net::NodeId> heads = deps.heads();
    std::sort(heads.begin(), heads.end());
    alg4.begin_step(updated, res.schedule);

    bool progressed = false;
    for (const net::NodeId head : heads) {
      if (alg4.loops(head, t)) continue;
      if (state && !state->try_update(head, t)) continue;
      res.schedule.set(head, t);
      updated.insert(head);
      pending.erase(head);
      log.updated.push_back(head);
      progressed = true;
    }
    if (opts.record_steps) res.steps.push_back(std::move(log));
    if (pending.empty()) break;

    ++t;
    stall = progressed ? 0 : stall + 1;
    if (stall > stall_limit) {
      return fail("no progress for " + std::to_string(stall) +
                  " steps (drain bound exceeded)");
    }
  }
  res.status = ScheduleStatus::kFeasible;
  res.verified = opts.guard_with_verifier;
  tally();
  return res;
}

}  // namespace chronus::core::oracle
