// Directed network graph with per-link capacity and transmission delay —
// the model G = (V, E) of the paper (§II.B, Table I).
//
// Nodes are switches; each link <u,v> has a capacity C_{u,v} (in demand
// units, e.g. Mbps) and an integral transmission delay sigma_{u,v} (in
// abstract time units for the algorithms, microseconds in the simulator).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/strong_types.hpp"

namespace chronus::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;
using Delay = std::int64_t;
// Unit-safe quantities (src/util/strong_types.hpp): construction is
// explicit and cross-axis arithmetic is restricted to the physically
// meaningful operations, so mixing a capacity into a demand (or either
// into a time) is a compile error.
using Capacity = util::Capacity;
using Demand = util::Demand;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr LinkId kInvalidLink = static_cast<LinkId>(-1);

struct Link {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Capacity capacity{};
  Delay delay = 1;
};

class Graph {
 public:
  Graph() = default;

  /// Adds a switch; `name` is for diagnostics ("v1", "v2", ...).
  NodeId add_node(std::string name = "");

  /// Adds n unnamed switches and returns the id of the first.
  NodeId add_nodes(std::size_t n);

  /// Adds a directed link. Requires valid endpoints, capacity > 0,
  /// delay >= 1 and no parallel duplicate (throws std::invalid_argument).
  LinkId add_link(NodeId u, NodeId v, Capacity capacity, Delay delay);

  std::size_t node_count() const { return node_names_.size(); }
  std::size_t link_count() const { return links_.size(); }

  const Link& link(LinkId id) const;

  /// Sets the capacity of an existing link (the only link field that may
  /// change after add_link, so max_delay() stays valid).
  void set_capacity(LinkId id, Capacity capacity);

  /// Link id of <u,v>, if it exists.
  std::optional<LinkId> find_link(NodeId u, NodeId v) const;

  bool has_link(NodeId u, NodeId v) const { return find_link(u, v).has_value(); }

  /// Outgoing / incoming link ids of a node.
  std::span<const LinkId> out_links(NodeId u) const;
  std::span<const LinkId> in_links(NodeId v) const;

  const std::string& name(NodeId v) const;
  void set_name(NodeId v, std::string name);

  /// Capacity / delay of <u,v>; throws if the link does not exist.
  Capacity capacity(NodeId u, NodeId v) const;
  Delay delay(NodeId u, NodeId v) const;

  /// Largest link delay in the graph (1 if no links), kept by add_link.
  Delay max_delay() const { return max_delay_; }

 private:
  void check_node(NodeId v) const;

  std::vector<std::string> node_names_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_;
  std::vector<std::vector<LinkId>> in_;
  Delay max_delay_ = 1;
};

}  // namespace chronus::net
