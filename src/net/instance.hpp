// A network-update instance: the input of MUTP (§II.B).
//
// An instance carries the graph, the dynamic flow's demand d, the initial
// path p_init (solid line) and the final path p_fin (dashed line), both from
// the common source to the common destination. Internally routing is kept
// as two (partial) next-hop functions so that, as in the paper's Fig. 1,
// switches that lie only on the old path can still receive a redirect rule
// in the final configuration (v5 -> v2 in the paper's example).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "net/graph.hpp"
#include "net/path.hpp"

namespace chronus::net {

class UpdateInstance {
 public:
  /// Builds an instance from the two paths. Both must be simple, share
  /// source and destination, have >= 2 nodes and exist in `g`.
  /// Switches only on p_init keep their old rule (no update needed) unless
  /// redirects are added afterwards via `set_new_next`.
  static UpdateInstance from_paths(Graph g, Path p_init, Path p_fin,
                                   Demand demand);

  /// The checks from_paths makes on its arguments: throws
  /// std::invalid_argument naming the first one that fails. The update
  /// service runs it when a request arrives, so a request no instance can
  /// be built for is rejected then.
  static void validate(const Graph& g, const Path& p_init, const Path& p_fin,
                       Demand demand);

  const Graph& graph() const { return graph_; }
  Graph& mutable_graph() { return graph_; }
  Demand demand() const { return demand_; }
  const Path& p_init() const { return p_init_; }
  const Path& p_fin() const { return p_fin_; }

  NodeId source() const { return p_init_.front(); }
  NodeId destination() const { return p_init_.back(); }

  /// Old / new next hop of v; nullopt if v has no rule in that config.
  std::optional<NodeId> old_next(NodeId v) const;
  std::optional<NodeId> new_next(NodeId v) const;

  /// Every old / new rule as switch -> next hop, in unspecified order:
  /// the switches without an entry have no rule in that configuration.
  const std::unordered_map<NodeId, NodeId>& old_rules() const {
    return old_next_;
  }
  const std::unordered_map<NodeId, NodeId>& new_rules() const {
    return new_next_;
  }

  /// Installs (or overrides) a final-configuration rule for v. The link
  /// <v, next> must exist. Used for paper-style redirect rules on switches
  /// that lie only on the old path.
  void set_new_next(NodeId v, NodeId next);

  /// True iff v's rule changes between the two configurations (v has a new
  /// rule different from its old rule, or a new rule and no old rule).
  bool needs_update(NodeId v) const;

  /// All switches with needs_update(), in ascending id order. This is the
  /// set V of to-be-updated switches in Algorithm 2.
  std::vector<NodeId> switches_to_update() const;

  /// Nodes appearing on either path, ascending.
  std::vector<NodeId> touched_nodes() const;

  /// A copy of this instance over a structurally identical graph (same node
  /// and link ids; capacities/delays may differ). Used by the multi-flow
  /// scheduler to present reduced capacities to one flow's scheduler.
  UpdateInstance with_graph(Graph g) const;

 private:
  UpdateInstance() = default;

  Graph graph_;
  Demand demand_{1.0};
  Path p_init_;
  Path p_fin_;
  std::unordered_map<NodeId, NodeId> old_next_;
  std::unordered_map<NodeId, NodeId> new_next_;
};

}  // namespace chronus::net
