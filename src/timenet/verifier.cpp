#include "timenet/verifier.hpp"

#include <algorithm>
#include <span>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/contracts.hpp"
#include "util/stopwatch.hpp"

namespace chronus::timenet {

namespace {

/// Per-call verifier tallies (verifier.* in DESIGN.md §11), flushed from
/// the destructor so every early return (abort, first-violation) still
/// reports what was done.
struct VerifyTally {
  const LoadLedger* ledger = nullptr;  ///< outlives the tally
  std::uint64_t classes_traced = 0;
  std::uint64_t links_checked = 0;
  std::uint64_t violations = 0;
  bool aborted = false;

  ~VerifyTally() {
    if (obs::registry() == nullptr) return;
    obs::add("verifier.calls");
    obs::add("verifier.classes_traced", classes_traced);
    obs::add("verifier.load_pieces", ledger->pieces());
    obs::add("verifier.links_checked", links_checked);
    obs::add("verifier.violations", violations);
    if (aborted) obs::add("verifier.aborted");
  }
};

/// The nominal window: the classes a class-by-class pass would trace, and
/// the entry steps whose congestion it would judge.
struct Window {
  TimePoint trace_begin{};  ///< first injected class
  TimePoint trace_end{};    ///< last injected class (inclusive)
  TimePoint eval_begin{};   ///< congestion evaluated for entries >= this
  TimePoint eval_end{};     ///< ... and <= this
};

Window make_window(const net::Graph& g,
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
  const std::int64_t d = trajectory_bound(g);
  Window w;
  w.eval_begin = min_t - d;
  w.eval_end = max_t + d;
  w.trace_begin = w.eval_begin - d;  // completes counts at eval_begin
  w.trace_end = w.eval_end;
  return w;
}

/// Where a flow's classes change shape: every class injected before `lo`
/// follows the all-old shape, every class from `last` on the final shape,
/// and only those in [lo, last) are traced one by one.
struct Split {
  TimePoint lo{};
  TimePoint last{};
};

/// `old_span` is the arrival offset of the all-old shape's last hop. A
/// class injected before first - old_span reaches every switch before the
/// first update; one injected at or after the last update meets only
/// final rules. Per-packet mode flips every class's shape at the flip.
Split split_of(const FlowTransition& f, const Window& w,
               std::size_t node_count, std::int64_t old_span) {
  Split s{w.trace_end + 1, w.trace_end + 1};  // never updated: all old
  if (f.per_packet_flip) {
    s = Split{*f.per_packet_flip, *f.per_packet_flip};
  } else {
    bool any = false;
    TimePoint first{};
    for (const auto& [v, t] : f.schedule->entries()) {
      if (v >= node_count) continue;  // the rule table ignores it too
      if (!any || t < first) first = t;
      if (!any || t > s.last) s.last = t;
      any = true;
    }
    if (any) s.lo = first - old_span;
  }
  s.lo = std::clamp(s.lo, w.trace_begin, w.trace_end + 1);
  s.last = std::clamp(s.last, s.lo, w.trace_end + 1);
  return s;
}

/// Traces every flow of the window into `ledger`, class runs in closed
/// form: a run, and each stretch of traced classes on one shape, is one
/// piece per link. `visit(result, tau)` gets each class result in the
/// order a class-by-class pass meets them, a run's once at its first
/// class; `expired(from, to)` is asked for every stretch of classes in
/// order. Either stops the pass by returning true; the function then
/// returns false.
template <class Visit, class Expired>
bool trace_flows(const net::Graph& g, const std::vector<FlowTransition>& flows,
                 const Window& w, LoadLedger& ledger, std::uint64_t& traced,
                 Visit&& visit, Expired&& expired) {
  // chronus-analyzer: allow(hot-alloc) one demand per flow, once per call
  std::vector<net::Demand> demands;
  for (const FlowTransition& f : flows) demands.push_back(f.instance->demand());
  ledger.reset(g.link_count(), demands);
  const auto to_ledger = [&ledger](auto... piece) { ledger.add(piece...); };
  ClassRun run;
  Tracer tracer(g.node_count());
  const auto trace_flow = [&](std::size_t f) {
    const FlowTransition& flow = flows[f];
    const RuleTable rules(FlowView{&g, flow.instance, flow.schedule,
                                   flow.per_packet_flip});
    // Class trace_begin ends before any update (it is at least 2d before
    // the earliest), so it has the all-old shape.
    const TraceResult head = tracer.run(rules, w.trace_begin);
    const std::span<const FlatHop> old_shape = tracer.hops();
    const Split s = split_of(flow, w, g.node_count(),
                             old_shape.back().arrival - w.trace_begin);
    if (s.lo > w.trace_begin) {
      if (expired(w.trace_begin, w.trace_begin)) return false;
      run.gather(f, old_shape, w.trace_begin, s.lo - 1, 1, to_ledger);
      if (visit(head, w.trace_begin)) return false;
      if (expired(w.trace_begin + 1, s.lo - 1)) return false;
    }
    for (TimePoint tau = s.lo; tau < s.last; ++tau) {
      if (expired(tau, tau)) return false;
      ++traced;
      const TraceResult trace = tracer.run(rules, tau);
      run.gather(f, tracer.hops(), tau, tau, 1, to_ledger);
      if (visit(trace, tau)) return false;
    }
    if (s.last <= w.trace_end) {
      if (expired(s.last, s.last)) return false;
      const TraceResult tail = tracer.run(rules, s.last);
      run.gather(f, tracer.hops(), s.last, w.trace_end, 1, to_ledger);
      if (visit(tail, s.last)) return false;
      if (expired(s.last + 1, w.trace_end)) return false;
    }
    return true;
  };
  bool done = true;
  for (std::size_t f = 0; f < flows.size() && done; ++f) done = trace_flow(f);
  run.spill(to_ledger);
  return done;
}

}  // namespace

TransitionReport verify_transitions(const std::vector<FlowTransition>& flows,
                                    const VerifyOptions& opts) {
  CHRONUS_SPAN("verifier.transitions");
  LoadLedger ledger;
  VerifyTally tally{&ledger};
  TransitionReport report;
  if (flows.empty()) return report;
  const net::Graph& g = flows.front().instance->graph();
  const Window w = make_window(g, flows);
  const util::Deadline deadline(opts.deadline_sec);

  // Each looping / blackholing switch is reported once; a persistent loop
  // would otherwise repeat for every class in the window.
  constexpr std::uint8_t kLoopSeen = 1;
  constexpr std::uint8_t kBlackholeSeen = 2;
  // chronus-analyzer: allow(hot-alloc) one flag byte per switch, once per call
  std::vector<std::uint8_t> seen(g.node_count(), 0);
  const auto visit = [&](const TraceResult& trace, TimePoint tau) {
    if (trace.looped() && (seen[trace.loop_node] & kLoopSeen) == 0) {
      seen[trace.loop_node] |= kLoopSeen;
      report.loops.push_back(LoopEvent{tau, trace.loop_node});
      ++tally.violations;
      if (opts.first_violation_only) return true;
    }
    if (trace.end == TraceEnd::kBlackhole &&
        (seen[trace.fault_node] & kBlackholeSeen) == 0) {
      seen[trace.fault_node] |= kBlackholeSeen;
      report.blackholes.push_back(BlackholeEvent{tau, trace.fault_node});
      ++tally.violations;
      if (opts.first_violation_only) return true;
    }
    return false;
  };
  // The deadline is checked where a class-by-class pass checks it: at the
  // classes tau = 0 (mod 256) of the nominal window.
  const auto expired = [&](TimePoint from, TimePoint to) {
    const TimePoint checkpoint{to.count() & ~std::int64_t{0xff}};
    if (from > to || checkpoint < from || !deadline.expired()) return false;
    report.aborted = true;
    tally.aborted = true;
    return true;
  };

  if (!trace_flows(g, flows, w, ledger, tally.classes_traced, visit,
                   expired)) {
    return report;
  }

  // Link-major, entry step ascending: the order the events are reported in.
  // A violating stretch is counted cell by cell, so first_violation_only
  // stops at the same cell a class-by-class pass does. A link the flows
  // never entered has no cell, so only the loaded links are scanned, in
  // ascending id.
  // chronus-analyzer: allow(hot-alloc) one id per loaded link, once per call
  std::vector<net::LinkId> loaded(ledger.touched().begin(),
                                  ledger.touched().end());
  std::sort(loaded.begin(), loaded.end());
  constexpr double kEps = 1e-9;
  for (const net::LinkId link : loaded) {
    const net::Capacity cap = g.link(link).capacity;
    const bool go_on = ledger.scan(
        link, w.eval_begin, w.eval_end,
        [&](TimePoint first, TimePoint last, net::Demand x) {
          if (!(x > cap + net::Demand{kEps})) {
            tally.links_checked += static_cast<std::uint64_t>(last - first + 1);
            return true;
          }
          for (TimePoint enter = first; enter <= last; ++enter) {
            ++tally.links_checked;
            report.congestion.push_back(CongestionEvent{link, enter, x, cap});
            ++tally.violations;
            if (opts.first_violation_only) return false;
          }
          return true;
        });
    if (!go_on) return report;
  }
  return report;
}

TransitionReport verify_transition(const net::UpdateInstance& inst,
                                   const UpdateSchedule& sched,
                                   const VerifyOptions& opts) {
  return verify_transitions({{&inst, &sched, {}}}, opts);
}

std::map<std::pair<net::LinkId, TimePoint>, net::Demand> link_loads(
    const net::UpdateInstance& inst, const UpdateSchedule& sched) {
  const net::Graph& g = inst.graph();
  // chronus-analyzer: allow(hot-alloc) diagnostics, one flow per call
  const std::vector<FlowTransition> flows{{&inst, &sched, {}}};
  const Window w = make_window(g, flows);
  LoadLedger ledger;
  std::uint64_t traced = 0;
  trace_flows(
      g, flows, w, ledger, traced,
      [](const TraceResult&, TimePoint) { return false; },
      [](TimePoint, TimePoint) { return false; });
  std::map<std::pair<net::LinkId, TimePoint>, net::Demand> out;
  // Every class injected by trace_end enters its last link within d.
  const TimePoint end = w.trace_end + trajectory_bound(g);
  for (net::LinkId link = 0; link < g.link_count(); ++link) {
    ledger.scan(link, w.trace_begin, end,
                [&](TimePoint first, TimePoint last, net::Demand x) {
                  for (TimePoint e = first; e <= last; ++e) {
                    out.emplace(std::pair{link, e}, x);
                  }
                  return true;
                });
  }
  return out;
}

void TransitionReport::merge(const TransitionReport& other) {
  congestion.insert(congestion.end(), other.congestion.begin(),
                    other.congestion.end());
  loops.insert(loops.end(), other.loops.begin(), other.loops.end());
  blackholes.insert(blackholes.end(), other.blackholes.begin(),
                    other.blackholes.end());
  aborted = aborted || other.aborted;
}

UpdateSchedule schedule_from_activations(
    const std::map<net::NodeId, std::int64_t>& activation_times,
    std::int64_t step_unit) {
  UpdateSchedule sched;
  if (activation_times.empty() || step_unit <= 0) return sched;
  std::int64_t origin = activation_times.begin()->second;
  for (const auto& [_, t] : activation_times) origin = std::min(origin, t);
  for (const auto& [v, t] : activation_times) {
    const std::int64_t offset = t - origin;
    // llround of offset/step_unit without floating point drift.
    const std::int64_t step = (offset + step_unit / 2) / step_unit;
    sched.set(v, TimePoint{step});
  }
  return sched;
}

std::string TransitionReport::to_string(const net::Graph& g) const {
  std::ostringstream os;
  os << (ok() ? "OK" : "VIOLATIONS") << ": " << congestion.size()
     << " congested time-extended links, " << loops.size() << " loops, "
     << blackholes.size() << " blackholes\n";
  for (const auto& c : congestion) {
    const net::Link& l = g.link(c.link);
    os << "  congestion on " << g.name(l.src) << "->" << g.name(l.dst)
       << " entering at t=" << c.enter_time << ": load " << c.load << " > cap "
       << c.capacity << "\n";
  }
  for (const auto& e : loops) {
    os << "  loop through " << g.name(e.node) << " (class injected at t="
       << e.injected << ")\n";
  }
  for (const auto& e : blackholes) {
    os << "  blackhole at " << g.name(e.node) << " (class injected at t="
       << e.injected << ")\n";
  }
  return os.str();
}

}  // namespace chronus::timenet
