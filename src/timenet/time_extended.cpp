#include "timenet/time_extended.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace chronus::timenet {

TimeExtendedNetwork::TimeExtendedNetwork(const net::Graph& g, TimePoint t_begin,
                                         TimePoint t_end,
                                         bool keep_boundary_links)
    : base_(&g),
      t_begin_(t_begin),
      t_end_(t_end),
      from_node_(util::ArenaAllocator<net::NodeId>(&arena_)),
      to_node_(util::ArenaAllocator<net::NodeId>(&arena_)),
      from_time_(util::ArenaAllocator<TimePoint>(&arena_)),
      to_time_(util::ArenaAllocator<TimePoint>(&arena_)),
      cap_(util::ArenaAllocator<net::Capacity>(&arena_)),
      base_id_(util::ArenaAllocator<net::LinkId>(&arena_)),
      slot_off_(util::ArenaAllocator<std::uint32_t>(&arena_)),
      slot_links_(util::ArenaAllocator<std::uint32_t>(&arena_)) {
  if (t_begin > t_end) throw std::invalid_argument("empty time window");
  build(g, keep_boundary_links);
  const util::ArenaStats& st = arena_.stats();
  obs::add("arena.gt.bytes", st.bytes_requested);
  obs::add("arena.gt.allocs", st.allocs);
  obs::add("arena.gt.chunks", st.chunks);
  obs::add("arena.gt.high_water", st.high_water);
}

void TimeExtendedNetwork::build(const net::Graph& g, bool keep_boundary_links) {
  util::ArenaScope claim(arena_);
  const std::size_t slots = g.node_count() * time_steps();

  // Counting pre-pass: total surviving links and per-slot out-degrees, so
  // every column and the CSR index are bump-allocated at exact size.
  slot_off_.assign(slots + 1, 0);
  std::size_t total = 0;
  for (TimePoint t = t_begin_; t <= t_end_; ++t) {
    for (net::LinkId id = 0; id < g.link_count(); ++id) {
      const net::Link& l = g.link(id);
      if (t + l.delay > t_end_ && !keep_boundary_links) continue;
      ++slot_off_[slot(l.src, t) + 1];
      ++total;
    }
  }
  for (std::size_t s = 0; s < slots; ++s) slot_off_[s + 1] += slot_off_[s];

  from_node_.reserve(total);
  to_node_.reserve(total);
  from_time_.reserve(total);
  to_time_.reserve(total);
  cap_.reserve(total);
  base_id_.reserve(total);
  slot_links_.resize(total);

  // Fill pass in (t, base_link) order: that order defines the timed-link
  // ids, and within a slot the CSR lists links in ascending id.
  util::ArenaVector<std::uint32_t> cursor(slot_off_.begin(),
                                          slot_off_.end() - 1,
                                          util::ArenaAllocator<std::uint32_t>(
                                              &arena_));
  for (TimePoint t = t_begin_; t <= t_end_; ++t) {
    for (net::LinkId id = 0; id < g.link_count(); ++id) {
      const net::Link& l = g.link(id);
      const TimePoint head = t + l.delay;
      if (head > t_end_ && !keep_boundary_links) continue;
      const auto k = static_cast<std::uint32_t>(from_node_.size());
      from_node_.push_back(l.src);
      to_node_.push_back(l.dst);
      from_time_.push_back(t);
      to_time_.push_back(head);
      cap_.push_back(l.capacity);
      base_id_.push_back(id);
      slot_links_[cursor[slot(l.src, t)]++] = k;
    }
  }
}

std::size_t TimeExtendedNetwork::node_copies() const {
  return base_->node_count() * time_steps();
}

std::size_t TimeExtendedNetwork::link_count() const {
  return from_node_.size();
}

TimedLink TimeExtendedNetwork::link(std::size_t i) const {
  CHRONUS_EXPECTS(i < link_count(), "timed-link id out of range");
  TimedLink tl;
  tl.from = TimedNode{from_node_[i], from_time_[i]};
  tl.to = TimedNode{to_node_[i], to_time_[i]};
  tl.capacity = cap_[i];
  tl.base_link = base_id_[i];
  return tl;
}

std::vector<TimedLink> TimeExtendedNetwork::links() const {
  // chronus-analyzer: allow(hot-alloc) compat accessor, heap copy by contract
  std::vector<TimedLink> out;
  out.reserve(link_count());
  for (std::size_t i = 0; i < link_count(); ++i) out.push_back(link(i));
  return out;
}

std::size_t TimeExtendedNetwork::slot(net::NodeId v, TimePoint t) const {
  // Public accessors filter out-of-window queries before reaching here, so
  // a violation means an internal indexing bug, not caller misuse.
  CHRONUS_EXPECTS(t >= t_begin_ && t <= t_end_,
                  "time-extended slot outside [t_begin, t_end]");
  CHRONUS_EXPECTS(v < base_->node_count(),
                  "time-extended slot for unknown node");
  return static_cast<std::size_t>(t - t_begin_) * base_->node_count() + v;
}

std::vector<TimedLink> TimeExtendedNetwork::out_links(net::NodeId v,
                                                      TimePoint t) const {
  // chronus-analyzer: allow(hot-alloc) compat accessor, heap copy by contract
  std::vector<TimedLink> out;
  if (t < t_begin_ || t > t_end_ || v >= base_->node_count()) return out;
  const std::size_t s = slot(v, t);
  out.reserve(slot_off_[s + 1] - slot_off_[s]);
  for (std::uint32_t i = slot_off_[s]; i < slot_off_[s + 1]; ++i) {
    out.push_back(link(slot_links_[i]));
  }
  return out;
}

std::optional<TimedLink> TimeExtendedNetwork::link_at(net::NodeId u,
                                                      net::NodeId v,
                                                      TimePoint t) const {
  for (const TimedLink& l : out_links(u, t)) {
    if (l.to.node == v) return l;
  }
  return std::nullopt;
}

std::string TimeExtendedNetwork::to_string(const TimedLink& l) const {
  return base_->name(l.from.node) + "(t" + std::to_string(l.from.time.count()) +
         ") -> " + base_->name(l.to.node) + "(t" + std::to_string(l.to.time.count()) +
         ")";
}

}  // namespace chronus::timenet
