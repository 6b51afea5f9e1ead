#include "net/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace chronus::net {

NodeId Graph::add_node(std::string name) {
  const auto id = static_cast<NodeId>(node_names_.size());
  if (name.empty()) name = "v" + std::to_string(id + 1);
  node_names_.push_back(std::move(name));
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

NodeId Graph::add_nodes(std::size_t n) {
  const auto first = static_cast<NodeId>(node_names_.size());
  for (std::size_t i = 0; i < n; ++i) add_node();
  return first;
}

LinkId Graph::add_link(NodeId u, NodeId v, Capacity cap, Delay delay) {
  check_node(u);
  check_node(v);
  if (u == v) throw std::invalid_argument("self-loop link");
  if (cap <= Capacity{}) throw std::invalid_argument("link capacity must be positive");
  if (delay < 1) throw std::invalid_argument("link delay must be >= 1");
  if (has_link(u, v)) throw std::invalid_argument("duplicate link");
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{u, v, cap, delay});
  max_delay_ = std::max(max_delay_, delay);
  out_[u].push_back(id);
  in_[v].push_back(id);
  return id;
}

const Link& Graph::link(LinkId id) const {
  if (id >= links_.size()) throw std::out_of_range("bad link id");
  return links_[id];
}

void Graph::set_capacity(LinkId id, Capacity capacity) {
  if (id >= links_.size()) throw std::out_of_range("bad link id");
  links_[id].capacity = capacity;
}

std::optional<LinkId> Graph::find_link(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  for (LinkId id : out_[u]) {
    if (links_[id].dst == v) return id;
  }
  return std::nullopt;
}

std::span<const LinkId> Graph::out_links(NodeId u) const {
  check_node(u);
  return out_[u];
}

std::span<const LinkId> Graph::in_links(NodeId v) const {
  check_node(v);
  return in_[v];
}

const std::string& Graph::name(NodeId v) const {
  check_node(v);
  return node_names_[v];
}

void Graph::set_name(NodeId v, std::string name) {
  check_node(v);
  node_names_[v] = std::move(name);
}

Capacity Graph::capacity(NodeId u, NodeId v) const {
  const auto id = find_link(u, v);
  if (!id) throw std::invalid_argument("no such link");
  return links_[*id].capacity;
}

Delay Graph::delay(NodeId u, NodeId v) const {
  const auto id = find_link(u, v);
  if (!id) throw std::invalid_argument("no such link");
  return links_[*id].delay;
}

void Graph::check_node(NodeId v) const {
  if (v >= node_names_.size()) throw std::out_of_range("bad node id");
}

}  // namespace chronus::net
