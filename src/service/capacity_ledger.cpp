#include "service/capacity_ledger.hpp"

#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace chronus::service {

namespace {

// Reservations are compared against headroom with a small epsilon so that
// repeated add/subtract round-trips (release after reserve) cannot starve
// an exactly-fitting footprint through floating-point drift.
constexpr net::Demand kEps{1e-9};

}  // namespace

Footprint transition_footprint(const net::Graph& g, const net::Path& p_init,
                               const net::Path& p_fin, net::Demand demand) {
  CHRONUS_EXPECTS(demand >= net::Demand{},
                  "transition footprints carry non-negative demand");
  Footprint fp;
  for (const net::LinkId id : net::path_links(g, p_init)) fp[id] += demand;
  for (const net::LinkId id : net::path_links(g, p_fin)) fp[id] += demand;
  return fp;
}

CapacityLedger::CapacityLedger(const net::Graph& g)
    : capacity_(g.link_count()), committed_(g.link_count()) {
  for (net::LinkId id = 0; id < g.link_count(); ++id) {
    capacity_[id] = g.link(id).capacity;
  }
}

net::Capacity CapacityLedger::capacity(net::LinkId id) const {
  return capacity_.at(id);
}

net::Demand CapacityLedger::committed(net::LinkId id) const {
  const util::MutexLock lock(mu_);
  return committed_.at(id);
}

bool CapacityLedger::try_reserve(const Footprint& fp) {
  obs::add("ledger.reserve_attempts");
  const util::MutexLock lock(mu_);
  for (const auto& [id, amount] : fp) {
    if (amount < net::Demand{}) {
      throw std::invalid_argument("negative reservation on link " +
                                  std::to_string(id));
    }
    if (committed_.at(id) + amount > capacity_.at(id) + kEps) {
      obs::add("ledger.conflicts");
      return false;
    }
  }
  for (const auto& [id, amount] : fp) {
    committed_[id] += amount;
    // Reserve/release balance: a successful reserve never drives a link
    // past its raw capacity (beyond float drift).
    CHRONUS_ENSURES(committed_[id] <= capacity_[id] + kEps,
                    "ledger commitment exceeds raw capacity");
    const double util = committed_[id] / capacity_[id];
    if (util > peak_) peak_ = util;
  }
  obs::add("ledger.reserves");
  obs::gauge_add("ledger.outstanding", 1);
  return true;
}

void CapacityLedger::release(const Footprint& fp) {
  obs::add("ledger.releases");
  obs::gauge_add("ledger.outstanding", -1);
  const util::MutexLock lock(mu_);
  for (const auto& [id, amount] : fp) {
    if (committed_.at(id) + kEps < amount) {
      throw std::logic_error("release of " + std::to_string(amount.value()) +
                             " exceeds commitment on link " +
                             std::to_string(id));
    }
  }
  for (const auto& [id, amount] : fp) {
    committed_[id] -= amount;
    if (committed_[id] < net::Demand{}) committed_[id] = net::Demand{};
    // Balance invariant: a release can only return to (or toward) idle.
    CHRONUS_ENSURES(committed_[id] >= net::Demand{},
                    "ledger commitment went negative");
  }
}

net::Graph CapacityLedger::restricted_graph(const net::Graph& g,
                                            const Footprint& fp) const {
  net::Graph out = g;
  for (const auto& [id, amount] : fp) {
    out.set_capacity(id, util::capacity_for(amount));
  }
  return out;
}

double CapacityLedger::peak_utilization() const {
  const util::MutexLock lock(mu_);
  return peak_;
}

bool CapacityLedger::idle() const {
  const util::MutexLock lock(mu_);
  for (const net::Demand c : committed_) {
    if (c > kEps) return false;
  }
  return true;
}

}  // namespace chronus::service
