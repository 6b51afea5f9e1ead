// OR: the order-replacement baseline planner (Ludwig et al., PODC'15, as
// used in the paper's §V): partition the to-be-updated switches into a
// minimum number of rounds such that — no matter in which order the rule
// replacements inside a round take effect — no transient forwarding loop
// can occur. Capacities and link delays are deliberately ignored, exactly
// like the baseline the paper compares against.
//
// Round safety uses the union-graph characterization: given the already
// updated set U and a candidate round S, build the graph where switches in
// U forward with their new rule, switches in S contribute BOTH rules and
// everyone else forwards with the old rule. Any cycle in that graph selects
// a consistent intermediate configuration (take exactly the S-switches whose
// new edge lies on the cycle as "already flipped") and vice versa, so S is
// safe iff the union graph is acyclic. This makes the per-round check
// polynomial; round minimization itself is NP-hard and solved by branch and
// bound (with a greedy-maximal fallback beyond `exact_limit`), matching the
// paper's "branch and bound method" for OR.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "net/instance.hpp"

namespace chronus::opt {

/// The union-graph cycle check, built once per instance and reused for
/// every query: next hops and the touched switches are flattened at
/// construction, and a query refills fixed per-node adjacency and colour
/// arrays, so it allocates nothing.
class RoundLoopCheck {
 public:
  explicit RoundLoopCheck(const net::UpdateInstance& inst);

  /// True iff updating every switch v with in_round(v) asynchronously,
  /// after the switches in `updated` (any set with contains()) took
  /// effect, cannot create a transient forwarding loop.
  template <typename Updated, typename InRound>
  bool safe(const Updated& updated, InRound in_round) {
    for (const net::NodeId v : nodes_) {
      const net::NodeId on = old_nx_[v];
      const net::NodeId nn = new_nx_[v];
      unsigned char cnt = 0;
      if (updated.contains(v)) {
        if (nn != net::kInvalidNode) out_[2 * v + cnt++] = nn;
      } else if (in_round(v)) {
        if (on != net::kInvalidNode) out_[2 * v + cnt++] = on;
        if (nn != net::kInvalidNode && nn != on) out_[2 * v + cnt++] = nn;
      } else if (on != net::kInvalidNode) {
        out_[2 * v + cnt++] = on;
      }
      out_n_[v] = cnt;
    }
    return acyclic();
  }

 private:
  bool acyclic();

  struct Frame {
    net::NodeId v;
    unsigned char i;
  };

  // Built once per instance: one entry per node of the graph, two for out_.
  std::vector<net::NodeId> nodes_;  // the touched switches
  std::vector<unsigned char> touched_;
  std::vector<net::NodeId> old_nx_;  // kInvalidNode: no such rule
  std::vector<net::NodeId> new_nx_;
  std::vector<net::NodeId> out_;  // the current query's out-edges of v
  std::vector<unsigned char> out_n_;
  std::vector<unsigned char> color_;  // 0 white, 1 grey, 2 black
  std::vector<Frame> stack_;
};

/// One-shot form of RoundLoopCheck::safe over explicit sets.
bool round_is_loop_safe(const net::UpdateInstance& inst,
                        const std::set<net::NodeId>& updated,
                        const std::set<net::NodeId>& round);

struct OrderOptions {
  double timeout_sec = 10.0;     ///< <= 0 disables the deadline
  std::size_t exact_limit = 18;  ///< above this many switches: greedy only
};

struct OrderResult {
  bool feasible = false;
  std::vector<std::vector<net::NodeId>> rounds;
  bool proved_optimal = false;
  bool timed_out = false;
  std::uint64_t nodes_explored = 0;
  std::string message;

  std::size_t round_count() const { return rounds.size(); }
};

OrderResult solve_order_replacement(const net::UpdateInstance& inst,
                                    const OrderOptions& opts = {});

}  // namespace chronus::opt
