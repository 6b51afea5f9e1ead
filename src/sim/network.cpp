#include "sim/network.hpp"

#include <span>
#include <stdexcept>

namespace chronus::sim {

Network::Network(const net::Graph& g, SimTime delay_unit, double bps_per_unit)
    : graph_(&g) {
  if (delay_unit <= 0) throw std::invalid_argument("delay_unit must be > 0");
  switches_.reserve(g.node_count());
  for (net::NodeId v = 0; v < g.node_count(); ++v) {
    switches_.emplace_back(v);
  }
  links_.resize(g.link_count());
  // Port numbering: port k on switch u is its k-th outgoing link, in id
  // order as Graph::out_links lists them; ingress ports continue after the
  // egress ports.
  std::vector<PortId> next_port(g.node_count(), 0);
  for (net::LinkId id = 0; id < g.link_count(); ++id) {
    const net::Link& l = g.link(id);
    SimLink& sl = links_[id];
    sl.id = id;
    sl.src = l.src;
    sl.dst = l.dst;
    sl.delay = l.delay * delay_unit;
    sl.capacity_bps = l.capacity.value() * bps_per_unit;
    sl.src_port = next_port[l.src]++;
  }
  for (net::LinkId id = 0; id < g.link_count(); ++id) {
    SimLink& sl = links_[id];
    sl.dst_port = next_port[sl.dst]++;
  }
}

SimSwitch& Network::sw(SwitchId id) {
  if (id >= switches_.size()) throw std::out_of_range("bad switch id");
  return switches_[id];
}

const SimSwitch& Network::sw(SwitchId id) const {
  if (id >= switches_.size()) throw std::out_of_range("bad switch id");
  return switches_[id];
}

SimLink& Network::link(net::LinkId id) {
  if (id >= links_.size()) throw std::out_of_range("bad link id");
  return links_[id];
}

const SimLink& Network::link(net::LinkId id) const {
  if (id >= links_.size()) throw std::out_of_range("bad link id");
  return links_[id];
}

std::optional<net::LinkId> Network::link_between(SwitchId u, SwitchId v) const {
  return graph_->find_link(u, v);
}

std::optional<net::LinkId> Network::link_on_port(SwitchId u, PortId port) const {
  if (u >= switches_.size()) return std::nullopt;
  const std::span<const net::LinkId> out = graph_->out_links(u);
  if (port >= out.size()) return std::nullopt;
  return out[port];
}

PortId Network::port_towards(SwitchId u, SwitchId v) const {
  const auto id = link_between(u, v);
  if (!id) throw std::invalid_argument("no link between switches");
  return links_[*id].src_port;
}

}  // namespace chronus::sim
