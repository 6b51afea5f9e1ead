// The simulated network: switches plus links with propagation delay,
// capacity and byte counters, built from a net::Graph. Link delays in the
// abstract graph are scaled by `delay_unit` into microseconds; capacities
// by `bps_per_unit` into bits per second.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/graph.hpp"
#include "sim/switch.hpp"
#include "util/step_function.hpp"

namespace chronus::sim {

struct SimLink {
  net::LinkId id = net::kInvalidLink;
  SwitchId src = 0;
  SwitchId dst = 0;
  PortId src_port = kNoPort;  ///< egress port on src
  PortId dst_port = kNoPort;  ///< ingress port on dst
  SimTime delay = 0;          ///< microseconds
  // chronus-lint: allow(raw-unit) physical bit/s rate, not an abstract Capacity
  double capacity_bps = 0.0;

  /// Offered load in bit/s over time, filled in by the traffic tracer. The
  /// paper's byte counters integrate this (buffers absorb transients, so a
  /// counter difference can exceed capacity — exactly Fig. 6's 600 Mbps
  /// reading on a 500 Mbps link).
  util::StepFunction offered_bps;
};

class Network {
 public:
  /// Builds switches and links mirroring `g`. Node/link ids are preserved.
  Network(const net::Graph& g, SimTime delay_unit, double bps_per_unit);

  std::size_t switch_count() const { return switches_.size(); }
  SimSwitch& sw(SwitchId id);
  const SimSwitch& sw(SwitchId id) const;

  std::size_t link_count() const { return links_.size(); }
  SimLink& link(net::LinkId id);
  const SimLink& link(net::LinkId id) const;

  /// The link leaving `u` towards `v`, if present.
  std::optional<net::LinkId> link_between(SwitchId u, SwitchId v) const;

  /// The link leaving `u` through egress port `port`, if present. Port k
  /// on u is u's k-th outgoing link in id order (Graph::out_links).
  std::optional<net::LinkId> link_on_port(SwitchId u, PortId port) const;

  /// Egress port on u towards v; throws if absent.
  PortId port_towards(SwitchId u, SwitchId v) const;

  const net::Graph& graph() const { return *graph_; }

 private:
  const net::Graph* graph_;
  std::vector<SimSwitch> switches_;
  std::vector<SimLink> links_;
};

}  // namespace chronus::sim
