#include "net/instance.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace chronus::net {

void UpdateInstance::validate(const Graph& g, const Path& p_init,
                              const Path& p_fin, Demand demand) {
  if (p_init.size() < 2 || p_fin.size() < 2) {
    throw std::invalid_argument("paths need at least two nodes");
  }
  if (p_init.front() != p_fin.front() || p_init.back() != p_fin.back()) {
    throw std::invalid_argument("paths must share source and destination");
  }
  if (!p_init.is_simple() || !p_fin.is_simple()) {
    throw std::invalid_argument("paths must be simple");
  }
  if (!path_exists_in(g, p_init) || !path_exists_in(g, p_fin)) {
    throw std::invalid_argument("path links missing in graph");
  }
  if (demand <= Demand{}) {
    throw std::invalid_argument("demand must be positive");
  }
}

UpdateInstance UpdateInstance::from_paths(Graph g, Path p_init, Path p_fin,
                                          Demand demand) {
  validate(g, p_init, p_fin, demand);
  UpdateInstance inst;
  inst.graph_ = std::move(g);
  inst.demand_ = demand;
  inst.p_init_ = std::move(p_init);
  inst.p_fin_ = std::move(p_fin);
  for (std::size_t i = 0; i + 1 < inst.p_init_.size(); ++i) {
    inst.old_next_[inst.p_init_[i]] = inst.p_init_[i + 1];
  }
  for (std::size_t i = 0; i + 1 < inst.p_fin_.size(); ++i) {
    inst.new_next_[inst.p_fin_[i]] = inst.p_fin_[i + 1];
  }
  // Switches only on the old path keep their rule in the final
  // configuration by default.
  for (const auto& [v, nxt] : inst.old_next_) {
    if (!inst.new_next_.count(v)) inst.new_next_[v] = nxt;
  }
  return inst;
}

std::optional<NodeId> UpdateInstance::old_next(NodeId v) const {
  const auto it = old_next_.find(v);
  if (it == old_next_.end()) return std::nullopt;
  return it->second;
}

std::optional<NodeId> UpdateInstance::new_next(NodeId v) const {
  const auto it = new_next_.find(v);
  if (it == new_next_.end()) return std::nullopt;
  return it->second;
}

void UpdateInstance::set_new_next(NodeId v, NodeId next) {
  if (!graph_.has_link(v, next)) {
    throw std::invalid_argument("redirect rule over missing link");
  }
  new_next_[v] = next;
}

bool UpdateInstance::needs_update(NodeId v) const {
  const auto nn = new_next(v);
  if (!nn) return false;
  const auto on = old_next(v);
  return !on || *on != *nn;
}

std::vector<NodeId> UpdateInstance::switches_to_update() const {
  std::set<NodeId> ids;
  for (const auto& [v, _] : new_next_) {
    if (needs_update(v)) ids.insert(v);
  }
  return {ids.begin(), ids.end()};
}

UpdateInstance UpdateInstance::with_graph(Graph g) const {
  if (g.node_count() != graph_.node_count() ||
      g.link_count() != graph_.link_count()) {
    throw std::invalid_argument("with_graph: graph layout mismatch");
  }
  UpdateInstance copy = *this;
  copy.graph_ = std::move(g);
  return copy;
}

std::vector<NodeId> UpdateInstance::touched_nodes() const {
  std::set<NodeId> ids;
  for (NodeId v : p_init_) ids.insert(v);
  for (NodeId v : p_fin_) ids.insert(v);
  return {ids.begin(), ids.end()};
}

}  // namespace chronus::net
