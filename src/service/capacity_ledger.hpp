// The capacity ledger: per-link headroom shared by every in-flight
// transition.
//
// Each admitted request reserves a *footprint* — demand units on every link
// of its old and new path, counted once per path occurrence, so a link on
// both paths holds 2d (the worst transient: an old-configuration and a
// new-configuration packet crossing it in the same window). Planning then
// runs against a graph whose footprint links carry exactly the reservation,
// and the verifier-guarded scheduler guarantees the flow's transient load
// never exceeds it. Because the ledger never lets the sum of reservations
// exceed a link's raw capacity, the per-flow guarantees add up: any set of
// concurrently executing plans is jointly congestion-free under the
// original capacities (the same argument as multi_flow's sequential
// composition, made concurrent).
//
// All operations are atomic all-or-nothing under one mutex: try_reserve
// either commits the whole footprint or leaves the ledger untouched, and
// release restores exactly what was reserved. The ledger refuses to
// over-commit or over-release by construction (checked invariants), which
// the concurrency tests hammer from many threads.
#pragma once

#include <map>
#include <vector>

#include "net/graph.hpp"
#include "net/path.hpp"
#include "util/thread_annotations.hpp"

namespace chronus::service {

/// Demand committed per link; the unit of reservation and release.
using Footprint = std::map<net::LinkId, net::Demand>;

/// The footprint of one old-path -> new-path transition: `demand` per
/// occurrence of a link on either path (shared links count twice). Throws
/// std::invalid_argument if a path uses a link absent from `g`.
Footprint transition_footprint(const net::Graph& g, const net::Path& p_init,
                               const net::Path& p_fin, net::Demand demand);

class CapacityLedger {
 public:
  explicit CapacityLedger(const net::Graph& g);

  std::size_t link_count() const { return capacity_.size(); }

  /// Raw capacity of a link (fixed at construction).
  net::Capacity capacity(net::LinkId id) const;

  /// Capacity currently committed to in-flight transitions.
  net::Demand committed(net::LinkId id) const CHRONUS_EXCLUDES(mu_);

  /// Atomically commits the footprint; returns false (ledger unchanged)
  /// if any link lacks headroom. Negative reservations are a contract
  /// violation (always a caller bug).
  bool try_reserve(const Footprint& fp) CHRONUS_EXCLUDES(mu_);

  /// Returns the reserved amounts; throws std::logic_error if any entry
  /// would drive a link's commitment negative (a release that was never
  /// reserved — always a caller bug).
  void release(const Footprint& fp) CHRONUS_EXCLUDES(mu_);

  /// A copy of `g` whose footprint links carry exactly the reservation
  /// amount (the capacities a single admitted request may plan against);
  /// non-footprint links keep their raw capacity.
  net::Graph restricted_graph(const net::Graph& g, const Footprint& fp) const;

  /// Max over links of committed/capacity ever observed (watermark).
  double peak_utilization() const CHRONUS_EXCLUDES(mu_);

  /// True iff no capacity is committed anywhere (all releases balanced).
  bool idle() const CHRONUS_EXCLUDES(mu_);

 private:
  mutable util::Mutex mu_;
  std::vector<net::Capacity> capacity_;  ///< immutable after construction
  std::vector<net::Demand> committed_ CHRONUS_GUARDED_BY(mu_);
  double peak_ CHRONUS_GUARDED_BY(mu_) = 0.0;
};

}  // namespace chronus::service
