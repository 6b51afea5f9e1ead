#include "timenet/trajectory.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace chronus::timenet {

RuleTable::RuleTable(const net::Graph& g, const net::UpdateInstance& inst)
    : old_(g.node_count()),
      new_(g.node_count()),
      update_(g.node_count(), kNever),
      src_(inst.source()),
      dst_(inst.destination()) {
  // Only switches with a rule are visited; every other one keeps "no
  // rule" (a blackhole).
  const auto compile = [&](const auto& rules, std::vector<Rule>& into) {
    for (const auto& [v, next] : rules) {
      const auto link = g.find_link(v, next);
      if (!link) continue;  // a rule over a missing link blackholes
      into[v] = Rule{next, *link, g.link(*link).delay};
    }
  };
  compile(inst.old_rules(), old_);
  compile(inst.new_rules(), new_);
}

RuleTable::RuleTable(const FlowView& flow)
    : RuleTable(*flow.graph, *flow.instance) {
  flip_ = flow.per_packet_flip;
  if (!flip_ && flow.schedule != nullptr) set_schedule(*flow.schedule);
}

void RuleTable::set_schedule(const UpdateSchedule& sched) {
  std::fill(update_.begin(), update_.end(), kNever);
  for (const auto& [v, t] : sched.entries()) {
    if (v < update_.size()) update_[v] = t;
  }
}

TraceResult Tracer::run(const RuleTable& rules, TimePoint injected,
                        std::vector<FlatHop>& hops, int hop_limit) {
  CHRONUS_EXPECTS(rules.node_count() <= seen_.size(),
                  "tracer sized for a smaller graph than the rule table");
  if (hop_limit <= 0) hop_limit = static_cast<int>(rules.node_count()) + 2;
  if (++epoch_ == 0) {  // stamps wrapped: forget every earlier trace
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  // Per-packet mode: the class's stamped tag picks one rule generation for
  // its whole trip; timed mode compares each arrival with T(v).
  const bool tagged = rules.flip_.has_value();
  const bool tag_new = tagged && injected >= *rules.flip_;

  TraceResult res;
  hops.clear();
  net::NodeId at = rules.src_;
  TimePoint now = injected;
  hops.push_back(FlatHop{at, net::kInvalidLink, now});
  seen_[at] = epoch_;

  for (int hop = 0; hop < hop_limit; ++hop) {
    if (at == rules.dst_) {
      res.end = TraceEnd::kDelivered;
      return res;
    }
    const bool fresh = tagged ? tag_new : now >= rules.update_[at];
    const RuleTable::Rule& rule = fresh ? rules.new_[at] : rules.old_[at];
    if (rule.link == net::kInvalidLink) {
      res.end = TraceEnd::kBlackhole;
      res.fault_node = at;
      return res;
    }
    hops.back().link = rule.link;
    now += rule.delay;
    at = rule.next;
    hops.push_back(FlatHop{at, net::kInvalidLink, now});
    if (seen_[at] != epoch_) {
      seen_[at] = epoch_;
    } else if (res.loop_node == net::kInvalidNode) {
      res.loop_node = at;  // record, but keep flowing
    }
  }
  res.end = TraceEnd::kHopLimit;
  res.fault_node = at;
  if (res.loop_node == net::kInvalidNode) res.loop_node = at;
  return res;
}

void LoadColumns::reset(std::size_t link_count, TimePoint first,
                        TimePoint last) {
  column_of_.assign(link_count, kNoColumn);
  cells_.clear();
  columns_ = 0;
  first_ = first;
  width_ = std::max<std::int64_t>(last - first + 1, 0);
}

net::Demand& LoadColumns::at(net::LinkId link, TimePoint entry) {
  std::uint32_t& col = column_of_[link];
  if (col == kNoColumn) {
    col = static_cast<std::uint32_t>(columns_++);
    cells_.resize(columns_ * static_cast<std::size_t>(width_));
  }
  if (entry < first_ || entry - first_ >= width_) widen(entry);
  return cells_[col * static_cast<std::size_t>(width_) +
                static_cast<std::size_t>(entry - first_)];
}

void LoadColumns::widen(TimePoint entry) {
  // Double the window towards `entry`, then move every column into its
  // new slot in place, last column first: the new layout is wider and
  // never starts earlier in the buffer, so no column overwrites one that
  // has not moved yet.
  constexpr std::int64_t kMinWidth = 64;
  TimePoint lo = entry;
  TimePoint end = entry + kMinWidth;
  if (width_ > 0) {
    lo = first_;
    end = first_ + width_;
    if (entry < lo) lo = std::min(entry, lo - width_);
    if (entry >= end) end = std::max(entry + 1, end + width_);
  }
  const auto old_w = static_cast<std::size_t>(width_);
  const auto new_w = static_cast<std::size_t>(end - lo);
  const auto shift = static_cast<std::size_t>(width_ > 0 ? first_ - lo : 0);
  cells_.resize(columns_ * new_w);
  const auto cells = cells_.begin();
  for (std::size_t c = columns_; c-- > 0;) {
    const auto from = cells + static_cast<std::ptrdiff_t>(c * old_w);
    const auto to = cells + static_cast<std::ptrdiff_t>(c * new_w + shift);
    std::copy_backward(from, from + static_cast<std::ptrdiff_t>(old_w),
                       to + static_cast<std::ptrdiff_t>(old_w));
    std::fill(cells + static_cast<std::ptrdiff_t>(c * new_w), to,
              net::Demand{});
    std::fill(to + static_cast<std::ptrdiff_t>(old_w),
              cells + static_cast<std::ptrdiff_t>((c + 1) * new_w),
              net::Demand{});
  }
  first_ = lo;
  width_ = end - lo;
}

std::span<const net::Demand> LoadColumns::column(net::LinkId link) const {
  if (link >= column_of_.size() || column_of_[link] == kNoColumn) return {};
  const auto w = static_cast<std::size_t>(width_);
  return {cells_.data() + column_of_[link] * w, w};
}

Trace trace_class(const FlowView& flow, TimePoint injected, int hop_limit) {
  const RuleTable rules(flow);
  Tracer tracer(rules.node_count());
  const TraceResult res = tracer.run(rules, injected, hop_limit);
  Trace trace;
  static_cast<TraceResult&>(trace) = res;
  trace.injected = injected;
  trace.hops.reserve(tracer.hops().size());
  for (const FlatHop& hop : tracer.hops()) {
    trace.hops.push_back(TraceHop{hop.node, hop.arrival});
  }
  return trace;
}

Trace trace_class(const net::UpdateInstance& inst, const UpdateSchedule& sched,
                  TimePoint injected, int hop_limit) {
  FlowView flow;
  flow.graph = &inst.graph();
  flow.instance = &inst;
  flow.schedule = &sched;
  return trace_class(flow, injected, hop_limit);
}

std::string to_string(const net::Graph& g, const Trace& trace) {
  std::string out;
  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    if (i) out += " -> ";
    out += g.name(trace.hops[i].node) + "@" + std::to_string(trace.hops[i].arrival.count());
  }
  switch (trace.end) {
    case TraceEnd::kDelivered: out += " [delivered]"; break;
    case TraceEnd::kBlackhole: out += " [BLACKHOLE at " + g.name(trace.fault_node) + "]"; break;
    case TraceEnd::kHopLimit: out += " [hop limit]"; break;
  }
  if (trace.loop_node != net::kInvalidNode) {
    out += " [LOOP at " + g.name(trace.loop_node) + "]";
  }
  return out;
}

}  // namespace chronus::timenet
