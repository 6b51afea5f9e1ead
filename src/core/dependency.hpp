// Dependency relation sets (Algorithm 3).
//
// At each time step the greedy scheduler asks: which pending switches can be
// updated now without violating a link capacity? For a pending switch v_i
// with new next hop v, the paper inspects the *solid-line* (initial-path)
// structure around v in the time-extended network: v_bar is v's predecessor
// and v_tilde its successor on p_init. While v_bar has not been updated it
// keeps feeding the flow through <v, v_tilde>; if that link cannot hold both
// the existing flow and the flow v_i would redirect onto it (C < 2d), the
// relation (v_bar -> v_i) is recorded: v_bar must move away first. Once
// v_bar is updated its solid link is no longer drawn and the relation
// disappears.
//
// Relations sharing a common element are merged into chains; only the first
// element of each chain may be updated in a step (Algorithm 2 line 10). As
// in the paper, a switch already part of a relation is skipped when its own
// dependency would be computed (the include flag of Algorithm 3), which
// also rules out two-cycles.
//
// Only "is v_bar still pending" changes from step to step; v_bar itself,
// and whether the relation's capacity test fails, are fixed by the
// instance. DependencyTable therefore derives each switch's candidate
// predecessor once per scheduler call, and a step's pass is one sweep over
// the pending ids with dense per-node flags. find_dependencies() is the
// one-shot form over std::set arguments.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "net/instance.hpp"

namespace chronus::core {

struct DependencySet {
  /// Each chain lists switches in required update order (head first). A
  /// pending switch with no constraints forms a singleton chain.
  std::vector<std::vector<net::NodeId>> chains;

  /// True iff the relations contain a cycle. The include-flag mechanism
  /// makes this structurally impossible, but the check is kept defensive
  /// (Algorithm 2 line 7-8 aborts on it).
  bool has_cycle = false;

  /// The heads of all chains: the switches eligible for update this step.
  std::vector<net::NodeId> heads() const;

  std::string to_string(const net::Graph& g) const;
};

/// The Algorithm 3 relations of one instance, derived once and evaluated
/// per step. A pass takes the pending switches as an ascending id list
/// plus a dense `live` flag per node: live[v] != 0 iff v is pending and
/// not yet updated, i.e. v still draws its solid link and can precede.
/// Every live switch must be in the pending list.
class DependencyTable {
 public:
  /// Derives the candidate predecessor of each of `switches`, the only
  /// ids a pass may list as pending (a scheduler passes the switches it
  /// will update).
  DependencyTable(const net::UpdateInstance& inst,
                  std::span<const net::NodeId> switches);

  /// One pass, heads only: the relation-free pending switches in ascending
  /// id order (== build(...).heads()) are written to `out`. Returns
  /// has_cycle.
  bool heads(std::span<const net::NodeId> pending,
             std::span<const std::uint8_t> live, std::vector<net::NodeId>& out);

  /// One pass with the chains: the relation forest emitted root by root in
  /// ascending order, each tree depth-first with successors ascending.
  DependencySet build(std::span<const net::NodeId> pending,
                      std::span<const std::uint8_t> live);

  std::size_t node_count() const { return candidate_.size(); }

 private:
  /// Fills pred_ for the pending switches (the relations of this pass).
  void relate(std::span<const net::NodeId> pending,
              std::span<const std::uint8_t> live);
  /// True iff some pending switch's predecessor chain never reaches a
  /// relation-free switch. O(|pending|).
  bool has_cycle(std::span<const net::NodeId> pending);

  /// v_bar for v_i when the relation (v_bar -> v_i) holds while v_bar is
  /// live: v_i's new next hop v is not the sink, has a solid predecessor
  /// v_bar != v_i and successor v_tilde, and C(v, v_tilde) < 2d.
  /// kInvalidNode when no such relation can ever form, or when v_i is not
  /// one of the constructor's switches.
  std::vector<net::NodeId> candidate_;
  std::vector<net::NodeId> pred_;       ///< this pass; kInvalidNode: root
  std::vector<std::uint8_t> included_;  ///< the include flags
  std::vector<std::uint8_t> mark_;      ///< has_cycle walk state
};

/// Computes the dependency relation set O_t for the pending switches.
/// `updated` is the set of switches whose update is already scheduled
/// (their solid links are no longer drawn). Builds a DependencyTable for
/// the one pass.
DependencySet find_dependencies(const net::UpdateInstance& inst,
                                const std::set<net::NodeId>& updated,
                                const std::set<net::NodeId>& pending);

}  // namespace chronus::core
