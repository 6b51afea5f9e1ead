#include "timenet/transition_state.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/contracts.hpp"

namespace chronus::timenet {

namespace {
constexpr double kEps = 1e-9;
// "Since forever": the tail of a flow that was never updated.
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
  load_.reset(graph_->link_count(), TimePoint{0}, TimePoint{-1});
  tracer_ = Tracer(graph_->node_count());
  flows_.reserve(flows.size());
  for (const auto* inst : flows) {
    FlowState& fs = flows_.emplace_back(*inst);
    fs.steady_entry.assign(graph_->link_count(), kOffTail);
    fs.head_end.assign(graph_->link_count(), kNoHead);
    // Unscheduled flows are one steady stream on their old path; the
    // tail's start is "always" so its load applies at every entry step.
    // The class injected at 0 also gives the old head its shape.
    tracer_.run(fs.rules, TimePoint{0}, fs.steady_shape.hops);
    fs.old_shape = fs.steady_shape.hops;
    fs.old_span = fs.old_shape.back().arrival - TimePoint{0};
    fs.steady_from = kAlways;
    set_tail(fs, true);
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

void TransitionState::add_loads(const ClassTrace& trace, net::Demand demand,
                                double sign) {
  for (std::size_t i = 0; i + 1 < trace.hops.size(); ++i) {
    load_.at(trace.hops[i].link, trace.hops[i].arrival) += sign * demand;
  }
}

net::Demand TransitionState::tail_load(net::LinkId link,
                                       TimePoint entry) const {
  net::Demand x{};
  for (const FlowState& fs : flows_) {
    if (entry >= fs.steady_entry[link]) x += fs.inst->demand();
  }
  return x;
}

net::Demand TransitionState::steady_load(net::LinkId link,
                                          TimePoint entry) const {
  net::Demand x = tail_load(link, entry);
  for (const FlowState& fs : flows_) {
    if (entry < fs.head_end[link]) x += fs.inst->demand();
  }
  return x;
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

bool TransitionState::retrace(std::size_t flow, TimePoint tau) {
  FlowState& fs = flows_[flow];
  const net::Demand demand = fs.inst->demand();
  ClassTrace& slot = class_slot(fs, tau);
  if (log_size_ == log_.size()) log_.emplace_back();
  LogEntry& entry = log_[log_size_++];
  entry.flow = flow;
  entry.tau = tau;
  // The displaced trace moves into the log; the slot takes the entry's
  // spare buffer to trace into.
  std::swap(entry.prev, slot);
  if (!entry.prev.hops.empty()) add_loads(entry.prev, demand, -1.0);

  slot.bad = !tracer_.run(fs.rules, tau, slot.hops).clean();
  for (std::size_t i = 0; i + 1 < slot.hops.size(); ++i) {
    const FlatHop& hop = slot.hops[i];
    load_.at(hop.link, hop.arrival) += demand;
    touched_.emplace_back(hop.link, hop.arrival);
  }
  return slot.bad;
}

void TransitionState::set_tail(FlowState& fs, bool always) {
  for (const net::LinkId link : fs.tail_links) {
    fs.steady_entry[link] = kOffTail;
  }
  fs.tail_links.clear();
  const auto& hops = fs.steady_shape.hops;
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    fs.steady_entry[hops[i].link] = always ? kAlways : hops[i].arrival;
    fs.tail_links.push_back(hops[i].link);
  }
}

void TransitionState::set_head(FlowState& fs, bool scheduled) {
  for (std::size_t i = 0; i + 1 < fs.old_shape.size(); ++i) {
    fs.head_end[fs.old_shape[i].link] =
        scheduled ? fs.lo + (fs.old_shape[i].arrival - TimePoint{0}) : kNoHead;
  }
}

bool TransitionState::refresh_steady(std::size_t flow, TimePoint from) {
  FlowState& fs = flows_[flow];
  fs.steady_from = from;
  fs.steady_shape.bad =
      !tracer_.run(fs.rules, fs.steady_from, fs.steady_shape.hops).clean();
  set_tail(fs, false);
  if (fs.steady_shape.bad) return false;

  for (const net::LinkId link : fs.tail_links) {
    const TimePoint start = fs.steady_entry[link];
    const net::Capacity cap = graph_->link(link).capacity;
    // Tail-vs-tail: every tail containing this link enters it once per
    // step from its start on, so from max(starts) onward they all share
    // the link forever.
    net::Demand tails{};
    for (const FlowState& other : flows_) {
      if (other.steady_entry[link] != kOffTail) tails += other.inst->demand();
    }
    if (tails > cap + net::Demand{kEps}) return false;
    // Tail-vs-transitional: any traced load at or past the tail's start
    // collides with it (plus any other tail active there). A cell no class
    // entered holds 0 and passes: the tails bound above covers every
    // subset of tails.
    const std::span<const net::Demand> column = load_.column(link);
    const std::int64_t skip = std::max<std::int64_t>(start - load_.first(), 0);
    for (auto i = static_cast<std::size_t>(skip); i < column.size(); ++i) {
      const TimePoint entry = load_.first() + static_cast<std::int64_t>(i);
      if (column[i] + tail_load(link, entry) > cap + net::Demand{kEps}) {
        return false;
      }
    }
    // Tail-vs-head: another flow's old head still runs on this link from
    // the tail's start to its end; those steps are judged again with the
    // heads included. A flow's own head ends before its first update.
    for (const FlowState& other : flows_) {
      if (&other == &fs || other.head_end[link] <= start) continue;
      for (TimePoint entry = start; entry < other.head_end[link]; ++entry) {
        const std::int64_t i = entry - load_.first();
        const net::Demand traced =
            i >= 0 && i < static_cast<std::int64_t>(column.size())
                ? column[static_cast<std::size_t>(i)]
                : net::Demand{};
        if (traced + steady_load(link, entry) > cap + net::Demand{kEps}) {
          return false;
        }
      }
    }
  }
  return true;
}

void TransitionState::rewind(std::size_t log_begin) {
  while (log_size_ > log_begin) {
    LogEntry& entry = log_[--log_size_];
    FlowState& fs = flows_[entry.flow];
    ClassTrace& slot = class_slot(fs, entry.tau);
    add_loads(slot, fs.inst->demand(), -1.0);
    if (!entry.prev.hops.empty()) add_loads(entry.prev, fs.inst->demand(), 1.0);
    std::swap(slot, entry.prev);
    entry.prev.hops.clear();  // a spare from here on
  }
}

void TransitionState::rollback(Step& step) {
  rewind(step.log_begin);
  FlowState& fs = flows_[step.flow];
  fs.lo = step.prev_lo;
  fs.hi = step.prev_hi;
  fs.steady_from = step.prev_steady_from;
  std::swap(fs.steady_shape, step.prev_steady_shape);
  const bool scheduled = step.prev_steady_from != kAlways;
  set_tail(fs, !scheduled);
  set_head(fs, scheduled);
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
    bad = retrace(flow, tau);
  }
  fs.lo = new_lo;
  set_head(fs, true);

  // Classes that left the analytic steady tail (a later update time makes
  // them transitional) are materialized under the new schedule.
  for (TimePoint tau = old_hi + 1; tau <= new_top && !bad; ++tau) {
    bad = retrace(flow, tau);
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

  // The flow's steady tail under its new final configuration, and that
  // tail's collisions with transitional loads and other tails.
  if (!bad) bad = !refresh_steady(flow, last);

  // Capacity on every touched key, including every tail's share — judged
  // only now, after *all* affected classes moved (a class leaving a link
  // can compensate for another arriving on it).
  if (!bad) {
    for (const auto& [link, entry] : touched_) {
      const net::Demand x = load_.at(link, entry) + steady_load(link, entry);
      if (x > graph_->link(link).capacity + net::Demand{kEps}) {
        bad = true;
        break;
      }
    }
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
