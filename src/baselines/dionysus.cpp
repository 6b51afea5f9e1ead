#include "baselines/dionysus.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "opt/order_bnb.hpp"

namespace chronus::baselines {

DionysusExecution dionysus_execute(const net::UpdateInstance& inst,
                                   util::Rng& rng,
                                   const DionysusOptions& opts) {
  DionysusExecution exec;
  const net::Graph& g = inst.graph();
  const std::int64_t max_latency =
      opts.max_latency > 0 ? opts.max_latency : 3 * g.max_delay();
  const std::int64_t stall_limit =
      opts.stall_limit > 0 ? opts.stall_limit : max_latency + 2;

  // Capacity ledger: the old path carries the flow, everything else free.
  std::map<net::LinkId, net::Capacity> free_cap;
  for (net::LinkId id = 0; id < g.link_count(); ++id) {
    free_cap[id] = g.link(id).capacity;
  }
  for (const net::LinkId id : net::path_links(g, inst.p_init())) {
    free_cap[id] -= inst.demand();
  }

  std::set<net::NodeId> pending;
  for (const net::NodeId v : inst.switches_to_update()) pending.insert(v);
  std::set<net::NodeId> in_flight;  // issued, not yet confirmed
  std::set<net::NodeId> completed;
  std::map<timenet::TimePoint, std::vector<net::NodeId>> completions;
  opt::RoundLoopCheck loops(inst);

  constexpr double kEps = 1e-9;
  timenet::TimePoint t{};
  std::int64_t stall = 0;
  while (!pending.empty() || !in_flight.empty()) {
    bool progressed = false;

    // Confirmations: the switch applied the rule; Dionysus now considers
    // the old out-link's capacity free (in-flight drain notwithstanding —
    // that is its blind spot relative to timed updates).
    const auto done = completions.find(t);
    if (done != completions.end()) {
      for (const net::NodeId v : done->second) {
        in_flight.erase(v);
        completed.insert(v);
        const auto on = inst.old_next(v);
        const auto nn = inst.new_next(v);
        if (on && nn && *on != *nn) {
          free_cap[*g.find_link(v, *on)] += inst.demand();
        }
        progressed = true;
      }
      completions.erase(done);
    }

    // Issue every operation whose capacity is available and whose rule
    // replacement cannot loop no matter how the in-flight ones interleave.
    for (auto it = pending.begin(); it != pending.end();) {
      const net::NodeId v = *it;
      const auto nn = inst.new_next(v);
      const auto on = inst.old_next(v);
      const net::LinkId target = *g.find_link(v, *nn);
      const bool needs_capacity = !on || *on != *nn;
      if (needs_capacity && free_cap[target] + net::Demand{kEps} < inst.demand()) {
        ++it;
        continue;
      }
      // The round is every in-flight operation plus v.
      if (!loops.safe(completed, [&](net::NodeId w) {
            return w == v || in_flight.contains(w);
          })) {
        ++it;
        continue;
      }
      free_cap[target] -= inst.demand();
      const timenet::TimePoint issue_at = t;
      const timenet::TimePoint done_at =
          t + rng.uniform_int(1, max_latency);
      exec.issued.set(v, issue_at);
      exec.realized.set(v, done_at);
      completions[done_at].push_back(v);
      in_flight.insert(v);
      it = pending.erase(it);
      progressed = true;
    }

    ++t;
    // While confirmations are outstanding, one arrives within max_latency;
    // a genuine deadlock is only declared with nothing in flight.
    stall = progressed || !in_flight.empty() ? 0 : stall + 1;
    if (stall > stall_limit) {
      exec.message = "capacity deadlock: " + std::to_string(pending.size()) +
                     " operations cannot acquire their links";
      return exec;
    }
  }
  exec.complete = true;
  return exec;
}

}  // namespace chronus::baselines
