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

FlowView view_of(const net::Graph& g, const FlowTransition& f) {
  FlowView view;
  view.graph = &g;
  view.instance = f.instance;
  view.schedule = f.schedule;
  view.per_packet_flip = f.per_packet_flip;
  return view;
}

/// The loads of one verification. The classes traced one by one enter a
/// band of entry steps, kept as dense per-link columns; every other class
/// belongs to a run that follows one shape, and adds one class per entry
/// step to each link of it. Outside the band a link's load is constant
/// between run boundaries, so it is evaluated piece by piece.
///
/// Within one flow every addition to a cell is that flow's demand, so a
/// cell's load is fixed by how many classes of each flow entered it. The
/// band adds flow by flow and a piece folds its runs in flow order, one
/// addition per class: every load is bit-for-bit the sum a class-by-class
/// pass makes.
class Ledger {
 public:
  /// Adds the occupied links of one class traced into `hops`.
  void add_class(std::size_t flow, std::span<const FlatHop> hops) {
    for (const FlatHop& hop : hops) {
      if (hop.link == net::kInvalidLink) continue;
      if (cells_.empty() || hop.arrival < band_lo_) band_lo_ = hop.arrival;
      if (cells_.empty() || hop.arrival > band_hi_) band_hi_ = hop.arrival;
      cells_.push_back(Run{hop.link, flow, hop.arrival, hop.arrival});
    }
  }

  /// Adds the classes injected in [first, last], each following the shape
  /// `hops` traced for the class injected at `first`.
  void add_run(std::size_t flow, std::span<const FlatHop> hops,
               TimePoint first, TimePoint last) {
    for (const FlatHop& hop : hops) {
      if (hop.link == net::kInvalidLink) continue;
      const std::int64_t offset = hop.arrival - first;
      runs_.push_back(Run{hop.link, flow, first + offset, last + offset});
    }
  }

  /// Sums the band, flow by flow, once every class of `flows` is in.
  void build(const net::Graph& g, const std::vector<FlowTransition>& flows) {
    flows_ = &flows;
    // Both lists were filled flow by flow.
    auto cell = cells_.begin();
    auto run = runs_.begin();
    if (!cells_.empty()) band_.reset(g.link_count(), band_lo_, band_hi_);
    for (std::size_t f = 0; f < flows.size() && !cells_.empty(); ++f) {
      const net::Demand demand = flows[f].instance->demand();
      for (; cell != cells_.end() && cell->flow == f; ++cell) {
        band_.at(cell->link, cell->first) += demand;
      }
      for (; run != runs_.end() && run->flow == f; ++run) {
        const TimePoint from = std::max(run->first, band_lo_);
        const TimePoint to = std::min(run->last, band_hi_);
        for (TimePoint e = from; e <= to; ++e) {
          band_.at(run->link, e) += demand;
        }
      }
    }
    // Link-major for scan(); stable, so each link's runs stay in flow order.
    std::stable_sort(runs_.begin(), runs_.end(),
                     [](const Run& a, const Run& b) { return a.link < b.link; });
  }

  /// Calls fn(first, last, load) for the entered entry steps of `link` in
  /// [from, to], ascending: a band cell alone, a run piece as one call.
  /// Stops early, returning false, when fn does.
  template <class Fn>
  bool scan(net::LinkId link, TimePoint from, TimePoint to, Fn&& fn) {
    const auto [begin, end] = std::equal_range(
        runs_.begin(), runs_.end(), Run{link},
        [](const Run& a, const Run& b) { return a.link < b.link; });
    const std::span<const Run> runs(begin, end);
    const std::span<const net::Demand> column = band_.column(link);
    if (runs.empty() && column.empty()) return true;

    cuts_.clear();
    cuts_.push_back(from);
    cuts_.push_back(to + 1);
    if (!column.empty()) {
      cuts_.push_back(band_lo_);
      cuts_.push_back(band_hi_ + 1);
    }
    for (const Run& r : runs) {
      cuts_.push_back(r.first);
      cuts_.push_back(r.last + 1);
    }
    std::sort(cuts_.begin(), cuts_.end());
    cuts_.erase(std::unique(cuts_.begin(), cuts_.end()), cuts_.end());
    for (std::size_t i = 0; i + 1 < cuts_.size(); ++i) {
      const TimePoint a = cuts_[i];
      const TimePoint b = cuts_[i + 1] - 1;
      if (a < from || b > to) continue;
      if (!column.empty() && a >= band_lo_ && a <= band_hi_) {
        for (TimePoint e = a; e <= b; ++e) {
          const net::Demand x = column[static_cast<std::size_t>(e - band_lo_)];
          if (x != net::Demand{} && !fn(e, e, x)) return false;
        }
        continue;
      }
      net::Demand x{};
      bool entered = false;
      for (const Run& r : runs) {
        if (r.first > a || r.last < a) continue;
        x += (*flows_)[r.flow].instance->demand();
        entered = true;
      }
      if (entered && !fn(a, b, x)) return false;
    }
    return true;
  }

 private:
  /// Classes of one flow entering `link` once per step, from `first` to
  /// `last` (a traced class is a run of one).
  struct Run {
    net::LinkId link = net::kInvalidLink;
    std::size_t flow = 0;
    TimePoint first{};  ///< entry step of the run's first class
    TimePoint last{};   ///< ... and of its last (inclusive)
  };

  // chronus-analyzer: allow(hot-alloc) per-call buffer, one entry per link a traced class entered
  std::vector<Run> cells_;
  // chronus-analyzer: allow(hot-alloc) per-call buffer, one entry per link of a run shape
  std::vector<Run> runs_;
  // chronus-analyzer: allow(hot-alloc) per-link piece boundaries, reused across links
  std::vector<TimePoint> cuts_;
  LoadColumns band_;
  TimePoint band_lo_{};
  TimePoint band_hi_{};
  const std::vector<FlowTransition>* flows_ = nullptr;
};

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
/// form. `visit(result, tau)` gets each class result in the order a
/// class-by-class pass meets them, a run's once at its first class;
/// `expired(from, to)` is asked for every stretch of classes in order.
/// Either stops the pass by returning true; the function then returns
/// false.
template <class Visit, class Expired>
bool trace_flows(const net::Graph& g, const std::vector<FlowTransition>& flows,
                 const Window& w, Ledger& ledger, std::uint64_t& traced,
                 Visit&& visit, Expired&& expired) {
  Tracer tracer(g.node_count());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const RuleTable rules(view_of(g, flows[f]));
    // Class trace_begin ends before any update (it is at least 2d before
    // the earliest), so it has the all-old shape.
    const TraceResult head = tracer.run(rules, w.trace_begin);
    const std::span<const FlatHop> old_shape = tracer.hops();
    const Split s = split_of(flows[f], w, g.node_count(),
                             old_shape.back().arrival - w.trace_begin);
    if (s.lo > w.trace_begin) {
      if (expired(w.trace_begin, w.trace_begin)) return false;
      ledger.add_run(f, old_shape, w.trace_begin, s.lo - 1);
      if (visit(head, w.trace_begin)) return false;
      if (expired(w.trace_begin + 1, s.lo - 1)) return false;
    }
    for (TimePoint tau = s.lo; tau < s.last; ++tau) {
      if (expired(tau, tau)) return false;
      ++traced;
      const TraceResult trace = tracer.run(rules, tau);
      ledger.add_class(f, tracer.hops());
      if (visit(trace, tau)) return false;
    }
    if (s.last <= w.trace_end) {
      if (expired(s.last, s.last)) return false;
      const TraceResult tail = tracer.run(rules, s.last);
      ledger.add_run(f, tracer.hops(), s.last, w.trace_end);
      if (visit(tail, s.last)) return false;
      if (expired(s.last + 1, w.trace_end)) return false;
    }
  }
  return true;
}

}  // namespace

TransitionReport verify_transitions(const std::vector<FlowTransition>& flows,
                                    const VerifyOptions& opts) {
  CHRONUS_SPAN("verifier.transitions");
  VerifyTally tally;
  TransitionReport report;
  if (flows.empty()) return report;
  const net::Graph& g = flows.front().instance->graph();
  CHRONUS_EXPECTS(opts.window_slack >= 0, "window slack only widens");

  Window w = make_window(g, flows);
  w.trace_begin -= opts.window_slack;
  w.trace_end += opts.window_slack;
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

  Ledger ledger;
  if (!trace_flows(g, flows, w, ledger, tally.classes_traced, visit,
                   expired)) {
    return report;
  }
  ledger.build(g, flows);

  // Link-major, entry step ascending: the order the events are reported in.
  // A violating piece is counted cell by cell, so first_violation_only
  // stops at the same cell a class-by-class pass does.
  constexpr double kEps = 1e-9;
  for (net::LinkId link = 0; link < g.link_count(); ++link) {
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
  FlowTransition ft;
  ft.instance = &inst;
  ft.schedule = &sched;
  return verify_transitions({ft}, opts);
}

namespace {

/// Every entered (link, entry step) of the window and its load.
std::map<std::pair<net::LinkId, TimePoint>, net::Demand> loads_of(
    const net::Graph& g, const std::vector<FlowTransition>& flows) {
  const Window w = make_window(g, flows);
  Ledger ledger;
  std::uint64_t traced = 0;
  trace_flows(
      g, flows, w, ledger, traced,
      [](const TraceResult&, TimePoint) { return false; },
      [](TimePoint, TimePoint) { return false; });
  ledger.build(g, flows);
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

}  // namespace

std::map<std::pair<net::LinkId, TimePoint>, net::Demand> link_loads(
    const net::UpdateInstance& inst, const UpdateSchedule& sched) {
  FlowTransition ft;
  ft.instance = &inst;
  ft.schedule = &sched;
  return loads_of(inst.graph(), {ft});
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
