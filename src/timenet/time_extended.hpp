// The time-extended network G_T (Definition 4): one copy v(t) of every
// switch for every time step t in T, and for each link <u,v> with delay
// sigma a link <u(t), v(t+sigma)> with the original capacity.
//
// The schedulers themselves work on compact per-time structures, but the
// explicit expansion is exposed for tests, exposition (Fig. 2/5) and the
// OPT formulation, matching the paper's model one-to-one.
//
// Storage (DESIGN.md §16): structure-of-arrays columns for the timed
// links (endpoints, times, capacities, base ids) plus a CSR out-index
// (per-slot offsets into one flat id array), all bump-allocated from a
// per-network util::Arena sized in a counting pre-pass — one slab walk
// instead of one heap allocation per slot. The public accessors hand out
// the TimedLink value vocabulary below.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/graph.hpp"
#include "timenet/schedule.hpp"
#include "util/arena.hpp"

namespace chronus::timenet {

struct TimedNode {
  net::NodeId node = net::kInvalidNode;
  TimePoint time{};
  bool operator==(const TimedNode&) const = default;
};

struct TimedLink {
  TimedNode from;
  TimedNode to;
  net::Capacity capacity{};
  net::LinkId base_link = net::kInvalidLink;
};

class TimeExtendedNetwork {
 public:
  /// Expands `g` over the inclusive time window [t_begin, t_end]. Links
  /// whose head would fall outside the window are kept (they model flow
  /// leaving the window) only when `keep_boundary_links` is set.
  TimeExtendedNetwork(const net::Graph& g, TimePoint t_begin, TimePoint t_end,
                      bool keep_boundary_links = false);

  // The columns live inside the owned arena, so the network is pinned:
  // it is neither copyable nor movable.
  TimeExtendedNetwork(const TimeExtendedNetwork&) = delete;
  TimeExtendedNetwork& operator=(const TimeExtendedNetwork&) = delete;

  TimePoint t_begin() const { return t_begin_; }
  TimePoint t_end() const { return t_end_; }
  std::size_t time_steps() const {
    return static_cast<std::size_t>(t_end_ - t_begin_ + 1);
  }

  /// Number of node copies = node_count * time_steps.
  std::size_t node_copies() const;

  /// Number of timed links in the expansion.
  std::size_t link_count() const;

  /// The timed link with id `i` (ids follow ascending (t, base_link)
  /// construction order).
  TimedLink link(std::size_t i) const;

  /// All timed links in id order, materialized.
  std::vector<TimedLink> links() const;

  /// Outgoing timed links of v(t); empty if t outside the window.
  std::vector<TimedLink> out_links(net::NodeId v, TimePoint t) const;

  /// The timed link for base link <u,v> departing at t, if inside window.
  std::optional<TimedLink> link_at(net::NodeId u, net::NodeId v,
                                   TimePoint t) const;

  const net::Graph& base() const { return *base_; }

  /// "v1(t0) -> v2(t1)" for diagnostics.
  std::string to_string(const TimedLink& l) const;

 private:
  void build(const net::Graph& g, bool keep_boundary_links);

  const net::Graph* base_;
  TimePoint t_begin_;
  TimePoint t_end_;

  // SoA columns + CSR out-index, all inside arena_.
  util::Arena arena_;
  util::ArenaVector<net::NodeId> from_node_;
  util::ArenaVector<net::NodeId> to_node_;
  util::ArenaVector<TimePoint> from_time_;
  util::ArenaVector<TimePoint> to_time_;
  util::ArenaVector<net::Capacity> cap_;
  util::ArenaVector<net::LinkId> base_id_;
  util::ArenaVector<std::uint32_t> slot_off_;    // slots + 1 CSR offsets
  util::ArenaVector<std::uint32_t> slot_links_;  // flat timed-link ids

  std::size_t slot(net::NodeId v, TimePoint t) const;
};

}  // namespace chronus::timenet
