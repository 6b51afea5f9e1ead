#include "timenet/transition_state.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace chronus::timenet {

namespace {
constexpr double kEps = 1e-9;
// Every instant: where a never-updated flow's verdicts settle.
constexpr TimePoint kAlways{std::numeric_limits<TimePoint::rep>::min() / 4};
}  // namespace

TransitionState::TransitionState(const net::UpdateInstance& inst)
    : TransitionState(std::vector<const net::UpdateInstance*>{&inst}) {}

TransitionState::TransitionState(
    std::vector<const net::UpdateInstance*> flows) {
  if (flows.empty()) throw std::invalid_argument("no flows");
  graph_ = &flows.front()->graph();
  for (const auto* inst : flows) {
    if (inst->graph().node_count() != graph_->node_count() ||
        inst->graph().link_count() != graph_->link_count()) {
      throw std::invalid_argument("flows must share one graph layout");
    }
  }
  d_ = trajectory_bound(*graph_);
  // chronus-analyzer: allow(hot-alloc) one demand per flow, once per state
  std::vector<net::Demand> demands;
  for (const auto* inst : flows) demands.push_back(inst->demand());
  ledger_.reset(graph_->link_count(), demands);
  tracer_ = Tracer(graph_->node_count());
  tail_at_.assign(graph_->link_count(), -1);
  flows_.reserve(flows.size());
  for (const auto* inst : flows) {
    FlowState& fs = flows_.emplace_back(*inst);
    // An unscheduled flow is one steady stream on its old path, every
    // class on the shape of class 0 (steady_from), on each link at every
    // entry step. That shape is also the old head's.
    tracer_.run(fs.rules, fs.steady_from, fs.steady_shape.hops);
    fs.old_shape = fs.steady_shape.hops;
    fs.old_span = fs.old_shape.back().arrival - TimePoint{0};
    for (std::size_t i = 0; i + 1 < fs.old_shape.size(); ++i) {
      ledger_.add(fs.old_shape[i].link, flows_.size() - 1,
                  LoadLedger::kBefore, LoadLedger::kAfter, 1);
    }
  }
}

bool TransitionState::initial_state_valid() const {
  // chronus-analyzer: allow(hot-alloc) one demand per link, once per call
  std::vector<net::Demand> static_load(graph_->link_count());
  for (const FlowState& fs : flows_) {
    for (const net::LinkId id :
         net::path_links(*graph_, fs.inst->p_init())) {
      static_load[id] += fs.inst->demand();
    }
  }
  for (net::LinkId id = 0; id < static_load.size(); ++id) {
    if (static_load[id] > graph_->link(id).capacity + net::Demand{kEps}) {
      return false;
    }
  }
  return true;
}

TransitionState::ClassTrace& TransitionState::class_slot(FlowState& fs,
                                                         TimePoint tau) {
  if (fs.classes.empty()) {
    fs.class_base = tau;
    fs.classes.resize(1);
  } else if (tau < fs.class_base) {
    fs.classes.insert(fs.classes.begin(),
                      static_cast<std::size_t>(fs.class_base - tau),
                      ClassTrace{});
    fs.class_base = tau;
  } else if (tau - fs.class_base >=
             static_cast<std::int64_t>(fs.classes.size())) {
    fs.classes.resize(static_cast<std::size_t>(tau - fs.class_base) + 1);
  }
  return fs.classes[static_cast<std::size_t>(tau - fs.class_base)];
}

bool TransitionState::retrace(std::size_t flow, TimePoint tau,
                              std::span<const FlatHop> closed,
                              TimePoint closed_at) {
  FlowState& fs = flows_[flow];
  ClassTrace& slot = class_slot(fs, tau);
  if (log_size_ == log_.size()) log_.emplace_back();
  LogEntry& entry = log_[log_size_++];
  entry.flow = flow;
  entry.tau = tau;
  // The displaced trace moves into the log; the slot takes the entry's
  // spare buffer to trace into.
  std::swap(entry.prev, slot);
  slot.bad = !tracer_.run(fs.rules, tau, slot.hops).clean();
  // A class leaving the head or the tail had the closed form's shape.
  std::span<const FlatHop> from = entry.prev.hops;
  if (from.empty() && !closed.empty()) {
    closed_.assign(closed.begin(), closed.end());
    for (FlatHop& hop : closed_) hop.arrival += tau - closed_at;
    from = closed_;
  }
  // Both traces leave the source at tau; the links they share up to where
  // they part keep their loads.
  const std::span<const FlatHop> to = slot.hops;
  std::size_t same = 0;
  while (same + 1 < from.size() && same + 1 < to.size() &&
         from[same].link == to[same].link &&
         from[same].arrival == to[same].arrival) {
    ++same;
  }
  leaving_.gather(flow, from.subspan(same), tau, tau, -1, logged());
  arriving_.gather(flow, to.subspan(same), tau, tau, 1, logged());
  touching_.gather(flow, to, tau, tau, 1, touch());
  return slot.bad;
}

void TransitionState::move_tail(std::size_t flow,
                                std::span<const FlatHop> from,
                                std::int64_t shift,
                                std::span<const FlatHop> to) {
  // `from` is an accepted tail, so each of its links holds one piece; a
  // link `to` holds too only moves that piece's start.
  constexpr std::int64_t kConsumed = -2;
  for (std::size_t i = 0; i + 1 < from.size(); ++i) {
    tail_at_[from[i].link] = static_cast<std::int64_t>(i);
  }
  for (std::size_t j = 0; j + 1 < to.size(); ++j) {
    const net::LinkId link = to[j].link;
    const std::int64_t i = tail_at_[link];
    if (i < 0) {
      log_add(link, flow, to[j].arrival, LoadLedger::kAfter, 1);
      continue;
    }
    tail_at_[link] = kConsumed;
    const TimePoint was = from[static_cast<std::size_t>(i)].arrival + shift;
    const TimePoint now = to[j].arrival;
    if (was < now) log_add(link, flow, was, now - 1, -1);
    if (now < was) log_add(link, flow, now, was - 1, 1);
  }
  for (std::size_t i = 0; i + 1 < from.size(); ++i) {
    const net::LinkId link = from[i].link;
    if (tail_at_[link] != kConsumed) {
      log_add(link, flow, from[i].arrival + shift, LoadLedger::kAfter, -1);
    }
    tail_at_[link] = -1;
  }
}

bool TransitionState::refresh_steady(const Step& step, TimePoint from) {
  FlowState& fs = flows_[step.flow];
  fs.steady_from = from;
  fs.steady_shape.bad =
      !tracer_.run(fs.rules, fs.steady_from, fs.steady_shape.hops).clean();
  // The old tail keeps the classes from `from` on: the ones before it
  // left it through retrace().
  move_tail(step.flow, step.prev_steady_shape.hops,
            from - step.prev_steady_from, fs.steady_shape.hops);
  if (fs.steady_shape.bad) return false;

  // From its start on, a tail link's every piece holds the whole load
  // there: each traced class, each tail and each other flow's head active
  // at that step, and, as the last piece, the sum of every tail. The
  // flow's own head ends before its first update, so it never overlaps.
  // One scan per link judges them all (DESIGN.md §3).
  const std::vector<FlatHop>& shape = fs.steady_shape.hops;
  for (std::size_t i = 0; i + 1 < shape.size(); ++i) {
    const net::Capacity cap = graph_->link(shape[i].link).capacity;
    const bool fits = ledger_.scan(
        shape[i].link, shape[i].arrival, LoadLedger::kAfter,
        [&](TimePoint, TimePoint, net::Demand x) {
          return !(x > cap + net::Demand{kEps});
        });
    if (!fits) return false;
  }
  return true;
}

void TransitionState::rollback(Step& step) {
  // Both logs unwind last entry first.
  while (log_size_ > step.log_begin) {
    LogEntry& entry = log_[--log_size_];
    std::swap(class_slot(flows_[entry.flow], entry.tau), entry.prev);
    entry.prev.hops.clear();  // a spare from here on
  }
  while (adds_.size() > step.adds_begin) {
    const Stretch& a = adds_.back();
    ledger_.add(a.link, a.flow, a.first, a.last, -a.count);
    adds_.pop_back();
  }
  FlowState& fs = flows_[step.flow];
  fs.lo = step.prev_lo;
  fs.hi = step.prev_hi;
  fs.steady_from = step.prev_steady_from;
  std::swap(fs.steady_shape, step.prev_steady_shape);
}

bool TransitionState::try_update(std::size_t flow, net::NodeId v,
                                 TimePoint t) {
  CHRONUS_EXPECTS(flow < flows_.size(), "try_update on unknown flow index");
  FlowState& fs = flows_.at(flow);
  CHRONUS_EXPECTS(v < fs.inst->graph().node_count(),
                  "try_update on a node outside the flow's graph");
  if (fs.sched.contains(v)) {
    throw std::logic_error("switch already scheduled for this flow");
  }

  if (depth_ == steps_.size()) steps_.emplace_back();
  Step& rec = steps_[depth_];
  rec.flow = flow;
  rec.v = v;
  rec.log_begin = log_size_;
  rec.adds_begin = adds_.size();
  rec.prev_lo = fs.lo;
  rec.prev_hi = fs.hi;
  // The tail shape is only rewritten by refresh_steady below; park it in
  // the step and let refresh_steady trace into the step's spare buffer.
  std::swap(rec.prev_steady_shape, fs.steady_shape);
  rec.prev_steady_from = fs.steady_from;

  // The candidate goes into the rule table only; the schedule map takes it
  // once it is accepted, so a rejected probe never touches the map.
  const bool was_empty = fs.sched.empty();
  const TimePoint first = was_empty ? t : std::min(fs.sched.first_time(), t);
  const TimePoint last = was_empty ? t : std::max(fs.sched.last_time(), t);
  fs.rules.set_update(v, t);
  // Classes injected before first - old_span meet no update: the head.
  const TimePoint new_lo = first - fs.old_span;
  const TimePoint old_lo = was_empty ? new_lo : fs.lo;
  const TimePoint old_hi = was_empty ? new_lo - 1 : fs.hi;
  const TimePoint new_top = last - 1;

  bool bad = false;
  touched_.clear();

  // Classes that left the old head (an update before the first one) are
  // materialized under the new schedule.
  for (TimePoint tau = new_lo; tau < old_lo && !bad; ++tau) {
    bad = retrace(flow, tau, fs.old_shape, TimePoint{0});
  }
  fs.lo = new_lo;

  // Classes that left the analytic steady tail (a later update time makes
  // them transitional; a never-updated flow's stream) are materialized
  // under the new schedule.
  for (TimePoint tau = old_hi + 1; tau <= new_top && !bad; ++tau) {
    bad = retrace(flow, tau, rec.prev_steady_shape.hops, rec.prev_steady_from);
  }
  fs.hi = std::max(old_hi, new_top);

  // Transitional classes the candidate can affect: those whose current
  // trajectory visits v at or after t (v's rule change is invisible to
  // every other class — rules are per flow).
  const TimePoint from = std::max(old_lo, t - d_);
  for (TimePoint tau = from; tau <= old_hi && !bad; ++tau) {
    const std::vector<FlatHop>& hops = class_slot(fs, tau).hops;
    const bool visits =
        std::any_of(hops.begin(), hops.end(), [&](const FlatHop& hop) {
          return hop.node == v && hop.arrival >= t;
        });
    if (visits) bad = retrace(flow, tau);
  }

  leaving_.spill(logged());
  arriving_.spill(logged());
  touching_.spill(touch());

  // The flow's steady tail under its new final configuration, and the
  // loads it meets.
  if (!bad) bad = !refresh_steady(rec, last);

  // Capacity on every touched cell, heads and tails included — judged
  // only now, after *all* affected classes moved (a class leaving a link
  // can compensate for another arriving on it).
  for (std::size_t i = 0; i < touched_.size() && !bad; ++i) {
    const Stretch& r = touched_[i];
    const net::Capacity cap = graph_->link(r.link).capacity;
    bad = !ledger_.scan(r.link, r.first, r.last,
                        [&](TimePoint, TimePoint, net::Demand x) {
                          return !(x > cap + net::Demand{kEps});
                        });
  }

  if (bad) {
    rollback(rec);
    fs.rules.clear_update(v);
    return false;
  }
  fs.sched.set(v, t);
  ++depth_;
  return true;
}

TimePoint TransitionState::settle_time() const {
  CHRONUS_EXPECTS(flows_.size() == 1, "settle_time is defined for one flow");
  const FlowState& fs = flows_.front();
  // A never-updated flow is one steady stream: every instant is alike.
  if (fs.sched.empty()) return kAlways;
  TimePoint latest = fs.steady_from;
  for (TimePoint tau = fs.lo; tau <= fs.hi; ++tau) {
    const std::vector<FlatHop>& hops =
        fs.classes[static_cast<std::size_t>(tau - fs.class_base)].hops;
    latest = std::max(latest, hops.back().arrival);
  }
  const std::int64_t tail_span =
      fs.steady_shape.hops.back().arrival - fs.steady_from;
  return latest + 2 * tail_span + 1;
}

void TransitionState::undo() {
  if (depth_ == 0) throw std::logic_error("nothing to undo");
  Step& rec = steps_[--depth_];
  rollback(rec);
  flows_[rec.flow].sched.erase(rec.v);
  flows_[rec.flow].rules.clear_update(rec.v);
}

}  // namespace chronus::timenet
