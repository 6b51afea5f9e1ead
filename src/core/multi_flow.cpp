#include "core/multi_flow.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "core/dependency.hpp"
#include "timenet/transition_state.hpp"
#include "timenet/verifier.hpp"

namespace chronus::core {

namespace {

/// Subtracts the static load of flow `other` (on its old or new stable
/// path) from the capacities of `g`, clamping at a tiny positive value so
/// the link stays present but unusable for additional flow.
void subtract_static_load(net::Graph& g, const net::UpdateInstance& other,
                          bool transitioned) {
  const net::Path& p = transitioned ? other.p_fin() : other.p_init();
  for (const net::LinkId id : net::path_links(g, p)) {
    g.set_capacity(id, std::max(g.link(id).capacity - other.demand(),
                                net::Capacity{1e-6}));
  }
}

}  // namespace

MultiFlowResult schedule_flows_jointly(
    const std::vector<net::UpdateInstance>& flows) {
  MultiFlowResult res;
  res.schedules.resize(flows.size());
  if (flows.empty()) {
    res.status = ScheduleStatus::kFeasible;
    return res;
  }

  std::vector<const net::UpdateInstance*> ptrs;
  ptrs.reserve(flows.size());
  for (const auto& f : flows) ptrs.push_back(&f);
  timenet::TransitionState state(ptrs);  // throws on graph-layout mismatch
  if (!state.initial_state_valid()) {
    res.status = ScheduleStatus::kInfeasible;
    res.message = "initial configuration already exceeds a link capacity";
    return res;
  }

  const net::Graph& g = flows.front().graph();
  const std::int64_t stall_limit = timenet::trajectory_bound(g) + 2;

  // Per flow: one relation table, the pending switches ascending and a
  // live flag per node that an accepted head clears.
  std::vector<DependencyTable> tables;
  std::vector<std::vector<net::NodeId>> pending(flows.size());
  std::vector<std::vector<std::uint8_t>> live(flows.size());
  std::size_t remaining = 0;
  tables.reserve(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    pending[f] = flows[f].switches_to_update();
    tables.emplace_back(flows[f], pending[f]);
    live[f].assign(flows[f].graph().node_count(), 0);
    for (const net::NodeId v : pending[f]) live[f][v] = 1;
    remaining += pending[f].size();
  }
  std::vector<net::NodeId> heads;

  timenet::TimePoint t{};
  std::int64_t stall = 0;
  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (pending[f].empty()) continue;
      if (tables[f].heads(pending[f], live[f], heads)) {
        res.status = ScheduleStatus::kInfeasible;
        res.message = "flow " + std::to_string(f) + ": dependency cycle";
        return res;
      }
      for (const net::NodeId head : heads) {  // ascending id
        if (!state.try_update(f, head, t)) continue;
        live[f][head] = 0;
        --remaining;
        progressed = true;
      }
      std::erase_if(pending[f], [&](net::NodeId v) { return !live[f][v]; });
    }
    ++t;
    stall = progressed ? 0 : stall + 1;
    if (stall > stall_limit && remaining > 0) {
      res.status = ScheduleStatus::kInfeasible;
      res.message = "no progress for " + std::to_string(stall) +
                    " steps (drain bound exceeded)";
      return res;
    }
  }

  timenet::TimePoint lo{};
  timenet::TimePoint hi{};
  bool any = false;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    res.schedules[f] = state.schedule(f);
    if (res.schedules[f].empty()) continue;
    if (!any || res.schedules[f].first_time() < lo) {
      lo = res.schedules[f].first_time();
    }
    if (!any || res.schedules[f].last_time() > hi) {
      hi = res.schedules[f].last_time();
    }
    any = true;
  }
  res.total_span = any ? (hi - lo + 1) : 0;
  res.status = ScheduleStatus::kFeasible;
  return res;
}

MultiFlowResult schedule_flows_sequentially(
    const std::vector<net::UpdateInstance>& flows, const GreedyOptions& opts) {
  MultiFlowResult res;
  res.schedules.resize(flows.size());
  if (flows.empty()) {
    res.status = ScheduleStatus::kFeasible;
    return res;
  }
  const net::Graph& base = flows.front().graph();
  for (const auto& f : flows) {
    if (f.graph().node_count() != base.node_count() ||
        f.graph().link_count() != base.link_count()) {
      throw std::invalid_argument("flows must share one graph layout");
    }
  }

  const std::int64_t drain = timenet::trajectory_bound(base) + 2;

  timenet::TimePoint offset{};
  for (std::size_t k = 0; k < flows.size(); ++k) {
    net::Graph reduced = flows[k].graph();
    for (std::size_t j = 0; j < flows.size(); ++j) {
      if (j == k) continue;
      subtract_static_load(reduced, flows[j], /*transitioned=*/j < k);
    }
    const net::UpdateInstance inst_k = flows[k].with_graph(std::move(reduced));
    const ScheduleResult r = greedy_schedule(inst_k, opts);
    if (r.status != ScheduleStatus::kFeasible) {
      res.status = ScheduleStatus::kInfeasible;
      res.message = "flow " + std::to_string(k) + ": " +
                    (r.message.empty() ? "unschedulable" : r.message);
      return res;
    }
    if (!r.schedule.empty()) {
      const timenet::TimePoint base_t = r.schedule.first_time();
      for (const auto& [v, t] : r.schedule.entries()) {
        res.schedules[k].set(v, offset + (t - base_t));
      }
      offset += (r.schedule.last_time() - base_t) + 1 + drain;
    }
  }

  // Re-verify the combined plan against the original capacities.
  std::vector<timenet::FlowTransition> transitions;
  transitions.reserve(flows.size());
  for (std::size_t k = 0; k < flows.size(); ++k) {
    timenet::FlowTransition ft;
    ft.instance = &flows[k];
    ft.schedule = &res.schedules[k];
    transitions.push_back(ft);
  }
  timenet::VerifyOptions vo;
  vo.first_violation_only = true;
  if (!verify_transitions(transitions, vo).ok()) {
    res.status = ScheduleStatus::kInfeasible;
    res.message = "combined plan failed re-verification";
    return res;
  }

  timenet::TimePoint lo{};
  timenet::TimePoint hi{};
  bool any = false;
  for (const auto& s : res.schedules) {
    if (s.empty()) continue;
    if (!any || s.first_time() < lo) lo = s.first_time();
    if (!any || s.last_time() > hi) hi = s.last_time();
    any = true;
  }
  res.total_span = any ? (hi - lo + 1) : 0;
  res.status = ScheduleStatus::kFeasible;
  return res;
}

}  // namespace chronus::core
