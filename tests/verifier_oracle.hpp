// Map-based reference implementations of trajectory tracing and transition
// verification: a hash-set tracer that looks rules up through the
// instance's next-hop maps and links through Graph::find_link, a
// std::map<(link, entry), Demand> load map, and the per-class verifier
// loop over them. Slow and obviously correct. The library runs the same
// algorithms over flat storage (RuleTable / Tracer / LoadLedger in
// src/timenet/trajectory.hpp); the differential tests hold it to these
// field by field, and the TransitionState property tests take their
// verdicts from here.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "timenet/trajectory.hpp"
#include "timenet/verifier.hpp"
#include "util/stopwatch.hpp"

namespace chronus::timenet::oracle {

/// Rule of switch v for a class injected at `injected` arriving at time
/// t: new rule from T(v) on (timed mode) or from the tag flip on
/// (per-packet mode), old rule before.
inline std::optional<net::NodeId> rule_at(const FlowView& flow, net::NodeId v,
                                          TimePoint t, TimePoint injected) {
  if (flow.per_packet_flip) {
    if (injected >= *flow.per_packet_flip) return flow.instance->new_next(v);
    return flow.instance->old_next(v);
  }
  const auto update_time = flow.schedule->at(v);
  if (update_time && t >= *update_time) return flow.instance->new_next(v);
  return flow.instance->old_next(v);
}

inline Trace trace_class(const FlowView& flow, TimePoint injected,
                         int hop_limit = 0) {
  const net::Graph& g = *flow.graph;
  if (hop_limit <= 0) hop_limit = static_cast<int>(g.node_count()) + 2;

  Trace trace;
  trace.injected = injected;

  net::NodeId at = flow.instance->source();
  TimePoint now = injected;
  const net::NodeId dst = flow.instance->destination();
  std::unordered_set<net::NodeId> visited;

  trace.hops.push_back(TraceHop{at, now});
  visited.insert(at);

  for (int hop = 0; hop < hop_limit; ++hop) {
    if (at == dst) {
      trace.end = TraceEnd::kDelivered;
      return trace;
    }
    const auto next = rule_at(flow, at, now, injected);
    if (!next) {
      trace.end = TraceEnd::kBlackhole;
      trace.fault_node = at;
      return trace;
    }
    const auto link = g.find_link(at, *next);
    if (!link) {
      // A rule over a non-existent link is a blackhole in the data plane.
      trace.end = TraceEnd::kBlackhole;
      trace.fault_node = at;
      return trace;
    }
    now += g.link(*link).delay;
    at = *next;
    trace.hops.push_back(TraceHop{at, now});
    if (!visited.insert(at).second && trace.loop_node == net::kInvalidNode) {
      trace.loop_node = at;  // record, but keep flowing
    }
  }
  trace.end = TraceEnd::kHopLimit;
  trace.fault_node = at;
  if (trace.loop_node == net::kInvalidNode) trace.loop_node = at;
  return trace;
}

inline Trace trace_class(const net::UpdateInstance& inst,
                         const UpdateSchedule& sched, TimePoint injected,
                         int hop_limit = 0) {
  FlowView flow;
  flow.graph = &inst.graph();
  flow.instance = &inst;
  flow.schedule = &sched;
  return oracle::trace_class(flow, injected, hop_limit);
}

/// What the library's verifier.* counters read after the same call.
struct Tally {
  std::uint64_t classes_traced = 0;
  std::uint64_t links_checked = 0;
  std::uint64_t violations = 0;
  bool aborted = false;
};

using LoadMap = std::map<std::pair<net::LinkId, TimePoint>, net::Demand>;

struct Window {
  TimePoint trace_begin{};  ///< first injected class
  TimePoint trace_end{};    ///< last injected class (inclusive)
  TimePoint eval_begin{};   ///< congestion evaluated for entries >= this
  TimePoint eval_end{};     ///< ... and <= this
};

inline Window make_window(const net::Graph& g,
                          const std::vector<FlowTransition>& flows) {
  TimePoint min_t{};
  TimePoint max_t{};
  bool any = false;
  for (const auto& f : flows) {
    for (const auto& [_, t] : f.schedule->entries()) {
      if (!any || t < min_t) min_t = t;
      if (!any || t > max_t) max_t = t;
      any = true;
    }
    if (f.per_packet_flip) {
      if (!any || *f.per_packet_flip < min_t) min_t = *f.per_packet_flip;
      if (!any || *f.per_packet_flip > max_t) max_t = *f.per_packet_flip;
      any = true;
    }
  }
  const std::int64_t d =
      static_cast<std::int64_t>(g.node_count() + 2) * g.max_delay();
  Window w;
  w.eval_begin = min_t - d;
  w.eval_end = max_t + d;
  w.trace_begin = w.eval_begin - d;  // completes counts at eval_begin
  w.trace_end = w.eval_end;
  return w;
}

inline TransitionReport verify_transitions(
    const std::vector<FlowTransition>& flows, const VerifyOptions& opts = {},
    Tally* tally_out = nullptr) {
  Tally local;
  Tally& tally = tally_out != nullptr ? *tally_out : local;
  TransitionReport report;
  if (flows.empty()) return report;
  const net::Graph& g = flows.front().instance->graph();

  const Window w = make_window(g, flows);
  const util::Deadline deadline(opts.deadline_sec);

  LoadMap load;
  std::set<net::NodeId> loop_nodes_seen;
  std::set<net::NodeId> blackhole_nodes_seen;

  for (const auto& f : flows) {
    FlowView view;
    view.graph = &g;
    view.instance = f.instance;
    view.schedule = f.schedule;
    view.per_packet_flip = f.per_packet_flip;

    for (TimePoint tau = w.trace_begin; tau <= w.trace_end; ++tau) {
      if ((tau.count() & 0xff) == 0 && deadline.expired()) {
        report.aborted = true;
        tally.aborted = true;
        return report;
      }
      ++tally.classes_traced;
      const Trace trace = oracle::trace_class(view, tau);
      for (std::size_t i = 0; i + 1 < trace.hops.size(); ++i) {
        const auto link =
            g.find_link(trace.hops[i].node, trace.hops[i + 1].node);
        load[{*link, trace.hops[i].arrival}] += f.instance->demand();
      }
      if (trace.looped()) {
        if (loop_nodes_seen.insert(trace.loop_node).second) {
          report.loops.push_back(LoopEvent{tau, trace.loop_node});
          ++tally.violations;
          if (opts.first_violation_only) return report;
        }
      }
      if (trace.end == TraceEnd::kBlackhole) {
        if (blackhole_nodes_seen.insert(trace.fault_node).second) {
          report.blackholes.push_back(BlackholeEvent{tau, trace.fault_node});
          ++tally.violations;
          if (opts.first_violation_only) return report;
        }
      }
    }
  }

  constexpr double kEps = 1e-9;
  for (const auto& [key, x] : load) {
    const auto& [link_id, enter] = key;
    if (enter < w.eval_begin || enter > w.eval_end) continue;
    ++tally.links_checked;
    const net::Capacity cap = g.link(link_id).capacity;
    if (x > cap + net::Demand{kEps}) {
      report.congestion.push_back(CongestionEvent{link_id, enter, x, cap});
      ++tally.violations;
      if (opts.first_violation_only) return report;
    }
  }
  return report;
}

inline TransitionReport verify_transition(const net::UpdateInstance& inst,
                                          const UpdateSchedule& sched,
                                          const VerifyOptions& opts = {},
                                          Tally* tally = nullptr) {
  FlowTransition ft;
  ft.instance = &inst;
  ft.schedule = &sched;
  return oracle::verify_transitions({ft}, opts, tally);
}

inline LoadMap link_loads(const net::UpdateInstance& inst,
                          const UpdateSchedule& sched) {
  const net::Graph& g = inst.graph();
  FlowTransition ft;
  ft.instance = &inst;
  ft.schedule = &sched;
  const Window w = make_window(g, {ft});
  LoadMap load;
  FlowView view;
  view.graph = &g;
  view.instance = &inst;
  view.schedule = &sched;
  for (TimePoint tau = w.trace_begin; tau <= w.trace_end; ++tau) {
    const Trace trace = oracle::trace_class(view, tau);
    for (std::size_t i = 0; i + 1 < trace.hops.size(); ++i) {
      const auto link = g.find_link(trace.hops[i].node, trace.hops[i + 1].node);
      load[{*link, trace.hops[i].arrival}] += inst.demand();
    }
  }
  return load;
}

}  // namespace chronus::timenet::oracle
