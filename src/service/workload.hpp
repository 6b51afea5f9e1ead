// Deterministic arrival-process driver for the online update service.
//
// make_workload builds a reroute workload over a two-rail core topology:
// every source/destination pair can route through the shared core rails
// (A->B old, C->D new) or through its own private rails. Each generated
// request reroutes one pair's flow between two of its rails; with
// probability `conflict_density` the request contests the shared core, so
// the knob directly controls how often independent requests collide on the
// ledger (and hence how much admission deferral the service performs).
// Inter-arrival times are exponential with the given rate. Everything is
// drawn from util::Rng, so a (options, seed) pair always yields the
// identical trace — the property the determinism tests and the bench
// sweeps rely on.
#pragma once

#include <cstdint>

#include "service/service.hpp"
#include "util/rng.hpp"

namespace chronus::service {

struct WorkloadOptions {
  int requests = 200;
  double arrival_rate_hz = 40.0;  ///< mean arrivals per virtual second
  int pairs = 8;                  ///< distinct src/dst pairs
  /// Probability a request routes over the shared core rails instead of
  /// its pair-private rails.
  double conflict_density = 0.5;
  net::Demand demand_min{0.5};
  net::Demand demand_max{1.5};
  /// Relative deadline added to each arrival; 0 disables deadlines.
  sim::SimTime deadline = 60 * sim::kSecond;
  int priorities = 3;  ///< priorities drawn uniformly from [0, priorities)
  /// Probability of an oversized request (demand above the core capacity;
  /// the admission controller must reject it as statically infeasible).
  double oversize_prob = 0.0;

  net::Capacity core_capacity{4.0};     ///< shared rails (contested links)
  net::Capacity private_capacity{2.0};  ///< per-pair rails
  net::Capacity edge_capacity{64.0};    ///< access links (not a bottleneck)

  /// Number of rescue sites. Each site is a private contested link sized
  /// for ~1.25 flows and a trio of requests: an enterer that takes the link
  /// first, then — while it is still in flight — a vacater and a second
  /// enterer. Neither fits beside the first enterer, and the second
  /// enterer not beside the vacater, so the site drains by waiting for
  /// each in-flight release in turn. (A joint plan could order the vacate
  /// before the enter inside one window, as schedule_flows_jointly does
  /// offline; the service plans each request alone.) Each site consumes
  /// three slots of `requests`.
  int rescue_sites = 0;

  /// Optional chaos scenario whose arrival surges compress the background
  /// inter-arrival draws (sim/chaos.hpp). The multiplier scales the rate
  /// at each draw's current virtual time without consuming extra
  /// randomness, so a surging trace is still a pure function of (options,
  /// seed) and a quiet scenario yields the identical trace as none at all.
  /// Not owned; null = no campaign.
  const sim::ChaosScenario* chaos = nullptr;

  std::uint64_t seed = 1;
};

/// The generated topology plus request stream.
ServiceTrace make_workload(const WorkloadOptions& opt);

}  // namespace chronus::service
