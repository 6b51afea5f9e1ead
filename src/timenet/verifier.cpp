#include "timenet/verifier.hpp"

#include <algorithm>
#include <span>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/stopwatch.hpp"

namespace chronus::timenet {

namespace {

/// Per-call verifier tallies (verifier.* in DESIGN.md §11), flushed from
/// the destructor so every early return (abort, first-violation) still
/// reports what was done.
struct VerifyTally {
  std::uint64_t classes_traced = 0;
  std::uint64_t links_checked = 0;
  std::uint64_t violations = 0;
  bool aborted = false;

  ~VerifyTally() {
    if (obs::registry() == nullptr) return;
    obs::add("verifier.calls");
    obs::add("verifier.classes_traced", classes_traced);
    obs::add("verifier.links_checked", links_checked);
    obs::add("verifier.violations", violations);
    if (aborted) obs::add("verifier.aborted");
  }
};

/// Upper bound on the duration of any single trajectory.
std::int64_t trajectory_bound(const net::Graph& g) {
  return static_cast<std::int64_t>(g.node_count() + 2) * g.max_delay();
}

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

/// The ledger of one verification: every class injected in the trace
/// window enters its last link before trace_end + d.
LoadColumns make_ledger(const net::Graph& g, const Window& w) {
  LoadColumns load;
  load.reset(g.link_count(), w.trace_begin, w.trace_end + trajectory_bound(g));
  return load;
}

FlowView view_of(const net::Graph& g, const FlowTransition& f) {
  FlowView view;
  view.graph = &g;
  view.instance = f.instance;
  view.schedule = f.schedule;
  view.per_packet_flip = f.per_packet_flip;
  return view;
}

/// The one load accumulation of the verifier and link_loads(): traces
/// class `tau` and adds `demand` on every time-extended link it occupies.
TraceResult load_class(Tracer& tracer, const RuleTable& rules, TimePoint tau,
                       net::Demand demand, LoadColumns& load) {
  const TraceResult trace = tracer.run(rules, tau);
  const std::span<const FlatHop> hops = tracer.hops();
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    load.at(hops[i].link, hops[i].arrival) += demand;
  }
  return trace;
}

/// Demands are positive, so a cell holds a load iff some class entered it.
bool entered(net::Demand x) { return x != net::Demand{}; }

}  // namespace

TransitionReport verify_transitions(const std::vector<FlowTransition>& flows,
                                    const VerifyOptions& opts) {
  CHRONUS_SPAN("verifier.transitions");
  VerifyTally tally;
  TransitionReport report;
  if (flows.empty()) return report;
  const net::Graph& g = flows.front().instance->graph();

  Window w = make_window(g, flows);
  w.trace_begin -= opts.window_slack;
  w.trace_end += opts.window_slack;
  const util::Deadline deadline(opts.deadline_sec);

  // Per time-extended link loads, summed over flows.
  LoadColumns load = make_ledger(g, w);
  Tracer tracer(g.node_count());
  // Each looping / blackholing switch is reported once; a persistent loop
  // would otherwise repeat for every class in the window.
  constexpr std::uint8_t kLoopSeen = 1;
  constexpr std::uint8_t kBlackholeSeen = 2;
  // chronus-analyzer: allow(hot-alloc) one flag byte per switch, once per call
  std::vector<std::uint8_t> seen(g.node_count(), 0);

  for (const auto& f : flows) {
    const RuleTable rules(view_of(g, f));
    const net::Demand demand = f.instance->demand();
    for (TimePoint tau = w.trace_begin; tau <= w.trace_end; ++tau) {
      if ((tau.count() & 0xff) == 0 && deadline.expired()) {
        report.aborted = true;
        tally.aborted = true;
        return report;
      }
      ++tally.classes_traced;
      const TraceResult trace = load_class(tracer, rules, tau, demand, load);
      if (trace.looped() && (seen[trace.loop_node] & kLoopSeen) == 0) {
        seen[trace.loop_node] |= kLoopSeen;
        report.loops.push_back(LoopEvent{tau, trace.loop_node});
        ++tally.violations;
        if (opts.first_violation_only) return report;
      }
      if (trace.end == TraceEnd::kBlackhole &&
          (seen[trace.fault_node] & kBlackholeSeen) == 0) {
        seen[trace.fault_node] |= kBlackholeSeen;
        report.blackholes.push_back(BlackholeEvent{tau, trace.fault_node});
        ++tally.violations;
        if (opts.first_violation_only) return report;
      }
    }
  }

  // Link-major, entry step ascending: the order the events are reported in.
  constexpr double kEps = 1e-9;
  for (net::LinkId link = 0; link < g.link_count(); ++link) {
    const std::span<const net::Demand> column = load.column(link);
    const net::Capacity cap = g.link(link).capacity;
    for (std::size_t i = 0; i < column.size(); ++i) {
      const TimePoint enter = load.first() + static_cast<std::int64_t>(i);
      const net::Demand x = column[i];
      if (!entered(x) || enter < w.eval_begin || enter > w.eval_end) continue;
      ++tally.links_checked;
      if (x > cap + net::Demand{kEps}) {
        report.congestion.push_back(CongestionEvent{link, enter, x, cap});
        ++tally.violations;
        if (opts.first_violation_only) return report;
      }
    }
  }
  return report;
}

TransitionReport verify_transition(const net::UpdateInstance& inst,
                                   const UpdateSchedule& sched,
                                   const VerifyOptions& opts) {
  FlowTransition ft;
  ft.instance = &inst;
  ft.schedule = &sched;
  return verify_transitions({ft}, opts);
}

std::map<std::pair<net::LinkId, TimePoint>, net::Demand> link_loads(
    const net::UpdateInstance& inst, const UpdateSchedule& sched) {
  const net::Graph& g = inst.graph();
  FlowTransition ft;
  ft.instance = &inst;
  ft.schedule = &sched;
  const Window w = make_window(g, {ft});
  LoadColumns load = make_ledger(g, w);
  Tracer tracer(g.node_count());
  const RuleTable rules(view_of(g, ft));
  for (TimePoint tau = w.trace_begin; tau <= w.trace_end; ++tau) {
    load_class(tracer, rules, tau, inst.demand(), load);
  }
  std::map<std::pair<net::LinkId, TimePoint>, net::Demand> out;
  for (net::LinkId link = 0; link < g.link_count(); ++link) {
    const std::span<const net::Demand> column = load.column(link);
    for (std::size_t i = 0; i < column.size(); ++i) {
      if (!entered(column[i])) continue;
      out.emplace(std::pair{link, load.first() + static_cast<std::int64_t>(i)},
                  column[i]);
    }
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
