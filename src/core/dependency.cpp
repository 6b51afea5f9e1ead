#include "core/dependency.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/contracts.hpp"

namespace chronus::core {

std::vector<net::NodeId> DependencySet::heads() const {
  std::vector<net::NodeId> out;
  for (const auto& chain : chains) {
    if (!chain.empty()) out.push_back(chain.front());
  }
  return out;
}

std::string DependencySet::to_string(const net::Graph& g) const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < chains.size(); ++i) {
    if (i) os << ", ";
    os << "(";
    for (std::size_t j = 0; j < chains[i].size(); ++j) {
      if (j) os << " -> ";
      os << g.name(chains[i][j]);
    }
    os << ")";
  }
  os << "}";
  if (has_cycle) os << " CYCLE";
  return os.str();
}

DependencyTable::DependencyTable(const net::UpdateInstance& inst,
                                 std::span<const net::NodeId> switches) {
  const net::Graph& g = inst.graph();
  const std::size_t n = g.node_count();
  const net::Path& p_init = inst.p_init();
  const net::Demand need = 2.0 * inst.demand();

  // Solid-line structure: solid[v] = v_bar when v has a solid predecessor
  // v_bar and successor v_tilde and <v, v_tilde> cannot carry 2d. The sink
  // is last on p_init, so it never qualifies (no capacity beyond it).
  // chronus-analyzer: allow(hot-alloc) set-up buffer, once per call
  std::vector<net::NodeId> solid(n, net::kInvalidNode);
  for (std::size_t i = 1; i + 1 < p_init.size(); ++i) {
    const net::NodeId v = p_init[i];
    if (g.capacity(v, p_init[i + 1]) + net::Demand{1e-9} >= need) continue;
    solid[v] = p_init[i - 1];
  }
  candidate_.assign(n, net::kInvalidNode);
  for (const net::NodeId vi : switches) {
    CHRONUS_EXPECTS(vi < n, "switches are graph nodes");
    const auto v = inst.new_next(vi);
    if (!v || solid[*v] == vi) continue;
    candidate_[vi] = solid[*v];
  }
  pred_.assign(n, net::kInvalidNode);
  included_.assign(n, 0);
  mark_.assign(n, 0);
}

void DependencyTable::relate(std::span<const net::NodeId> pending,
                             std::span<const std::uint8_t> live) {
  CHRONUS_EXPECTS(live.size() == node_count(), "one live flag per node");
  for (const net::NodeId v : pending) {
    pred_[v] = net::kInvalidNode;
    included_[v] = 0;
  }
  for (const net::NodeId vi : pending) {  // ascending id, like the paper
    if (included_[vi]) continue;
    const net::NodeId v_bar = candidate_[vi];
    // Once v_bar is updated its solid link into v is no longer drawn.
    if (v_bar == net::kInvalidNode || !live[v_bar]) continue;
    pred_[vi] = v_bar;
    included_[vi] = 1;
    included_[v_bar] = 1;
  }
}

bool DependencyTable::has_cycle(std::span<const net::NodeId> pending) {
  // mark_: 0 unresolved, 1 on the walk in progress, 2 reaches a root.
  // Predecessors are live, hence pending, so every walk stays inside
  // `pending`, and a walk stops at the first switch already resolved.
  for (const net::NodeId v : pending) mark_[v] = 0;
  for (const net::NodeId v : pending) {
    net::NodeId x = v;
    while (mark_[x] == 0 && pred_[x] != net::kInvalidNode) {
      mark_[x] = 1;
      x = pred_[x];
    }
    if (mark_[x] == 1) return true;  // the walk closed on itself
    for (net::NodeId y = v; y != x; y = pred_[y]) mark_[y] = 2;
    mark_[x] = 2;
  }
  return false;
}

bool DependencyTable::heads(std::span<const net::NodeId> pending,
                            std::span<const std::uint8_t> live,
                            std::vector<net::NodeId>& out) {
  relate(pending, live);
  out.clear();
  for (const net::NodeId v : pending) {
    if (pred_[v] == net::kInvalidNode) out.push_back(v);
  }
  return has_cycle(pending);
}

DependencySet DependencyTable::build(std::span<const net::NodeId> pending,
                                     std::span<const std::uint8_t> live) {
  relate(pending, live);
  DependencySet out;
  out.has_cycle = has_cycle(pending);

  // Each pending switch has at most one predecessor, so the relations form
  // a forest of out-trees rooted at relation-free switches. Merging
  // relations on common elements (Algorithm 3 line 12) corresponds to
  // emitting each tree as one chain. Sorting the (pred, succ) pairs groups
  // each switch's successors in ascending order.
  // chronus-analyzer: allow(hot-alloc) chains are built for step logs only
  std::vector<std::pair<net::NodeId, net::NodeId>> edges;  // (pred, succ)
  for (const net::NodeId b : pending) {
    if (pred_[b] != net::kInvalidNode) edges.emplace_back(pred_[b], b);
  }
  std::ranges::sort(edges);

  for (const net::NodeId v : pending) mark_[v] = 0;  // 1: emitted
  // chronus-analyzer: allow(hot-alloc) chains are built for step logs only
  std::vector<net::NodeId> stack;
  for (const net::NodeId root : pending) {
    if (pred_[root] != net::kInvalidNode || mark_[root]) continue;
    // chronus-analyzer: allow(hot-alloc) the chain is the step log's output
    std::vector<net::NodeId> chain;
    stack.assign(1, root);
    while (!stack.empty()) {
      const net::NodeId x = stack.back();
      stack.pop_back();
      if (mark_[x]) continue;
      mark_[x] = 1;
      chain.push_back(x);
      const auto [lo, hi] = std::ranges::equal_range(
          edges, x, {}, &std::pair<net::NodeId, net::NodeId>::first);
      for (auto r = hi; r != lo;) stack.push_back((--r)->second);
    }
    out.chains.push_back(std::move(chain));
  }
  return out;
}

DependencySet find_dependencies(const net::UpdateInstance& inst,
                                const std::set<net::NodeId>& updated,
                                const std::set<net::NodeId>& pending) {
  // chronus-analyzer: allow(hot-alloc) one-shot form; schedulers keep a table
  const std::vector<net::NodeId> ids(pending.begin(), pending.end());
  DependencyTable table(inst, ids);
  // chronus-analyzer: allow(hot-alloc) one-shot form; schedulers keep a table
  std::vector<std::uint8_t> live(table.node_count(), 0);
  for (const net::NodeId v : pending) {
    if (!updated.count(v)) live[v] = 1;
  }
  return table.build(ids, live);
}

}  // namespace chronus::core
