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

void LoadLedger::reset(std::size_t link_count,
                       std::span<const net::Demand> demands) {
  // Rows past the touched ones are already empty.
  const std::size_t used = touched_.size() * demand_.size();
  for (std::size_t i = 0; i < used; ++i) rows_[i].clear();
  for (const net::LinkId link : touched_) row_of_[link] = kNoRow;
  touched_.clear();
  demand_.assign(demands.begin(), demands.end());
  // chronus-analyzer: allow(hot-alloc) one row index per link, kept across resets
  row_of_.resize(link_count, kNoRow);
  cursor_.resize(demand_.size());
  pieces_held_ = 0;
}

std::size_t LoadLedger::row(net::LinkId link) {
  CHRONUS_EXPECTS(link < row_of_.size(), "load on a link the ledger lacks");
  std::uint32_t& r = row_of_[link];
  if (r == kNoRow) {
    r = static_cast<std::uint32_t>(touched_.size());
    // chronus-analyzer: allow(hot-alloc) one entry per loaded link, kept across resets
    touched_.push_back(link);
    const std::size_t need = touched_.size() * demand_.size();
    // chronus-analyzer: allow(hot-alloc) one row per loaded link, kept across resets
    if (rows_.size() < need) rows_.resize(need);
  }
  return r;
}

void LoadLedger::add(net::LinkId link, std::size_t flow, TimePoint first,
                     TimePoint last, int count) {
  CHRONUS_EXPECTS(first <= last, "a load piece needs first <= last");
  std::vector<Piece>& pieces = slot(row(link), flow);
  // Rebuild the pieces that overlap [first, last] or touch it (an equal
  // neighbour merges), then splice them back.
  const TimePoint before = first == kBefore ? first : first - 1;
  const TimePoint after = last == kAfter ? last : last + 1;
  const auto lo = std::partition_point(
      pieces.begin(), pieces.end(),
      [&](const Piece& p) { return p.last < before; });
  auto hi = lo;  // usually a piece or two past lo
  while (hi != pieces.end() && hi->first <= after) ++hi;
  rebuilt_.clear();
  // Appends a piece, merged into an equal neighbour; count 0 is no piece.
  const auto emit = [this](TimePoint a, TimePoint b, int c) {
    CHRONUS_EXPECTS(c >= 0, "a load ledger count went below zero");
    if (c == 0) return;
    if (!rebuilt_.empty() && rebuilt_.back().count == c &&
        rebuilt_.back().last + 1 == a) {
      rebuilt_.back().last = b;
    } else {
      rebuilt_.push_back(Piece{a, b, c});
    }
  };
  TimePoint at = first;  // next step of [first, last] not yet rebuilt
  bool open = true;      // ... while at <= last
  const auto take = [&](TimePoint end, int c) {  // [at, end] at count c
    emit(at, end, c);
    open = end < last;
    if (open) at = end + 1;
  };
  for (auto p = lo; p != hi; ++p) {
    if (p->first < first) emit(p->first, std::min(p->last, before), p->count);
    if (open && at < p->first) take(std::min(last, p->first - 1), count);
    if (open && p->last >= at) take(std::min(last, p->last), p->count + count);
    if (p->last > last) emit(std::max(p->first, after), p->last, p->count);
  }
  if (open) emit(at, last, count);

  const auto i = lo - pieces.begin();
  pieces_held_ = pieces_held_ + rebuilt_.size() -
                 static_cast<std::size_t>(hi - lo);
  pieces.erase(lo, hi);
  // chronus-analyzer: allow(hot-alloc) grows to the link's most pieces, then reused
  pieces.insert(pieces.begin() + i, rebuilt_.begin(), rebuilt_.end());
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
