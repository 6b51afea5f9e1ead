#include "service/admission.hpp"

#include "obs/metrics.hpp"

namespace chronus::service {

namespace {

/// Flushes the round's outcome counts (admission.* in DESIGN.md §11) on
/// every exit path of decide(). All counts derive from the returned round,
/// so the metrics agree with the dispatcher's view by construction.
struct AdmissionTally {
  const AdmissionRound* round;

  ~AdmissionTally() {
    if (obs::registry() == nullptr) return;
    obs::add("admission.rounds");
    obs::add("admission.singles", round->singles.size());
    obs::add("admission.deferrals", round->deferred.size());
    for (const auto& [idx, status] : round->rejected) {
      (void)idx;
      switch (status) {
        case RequestStatus::kRejectedDeadline:
          obs::add("admission.reject_deadline");
          break;
        case RequestStatus::kRejectedInfeasible:
          obs::add("admission.reject_infeasible");
          break;
        case RequestStatus::kRejectedCapacity:
          obs::add("admission.reject_capacity");
          break;
        default:
          obs::add("admission.reject_other");
          break;
      }
    }
  }
};

}  // namespace

AdmissionController::AdmissionController(const net::Graph& base,
                                         AdmissionPolicy policy)
    : base_(&base), policy_(policy) {}

bool AdmissionController::statically_feasible(const Footprint& fp) const {
  for (const auto& [id, amount] : fp) {
    if (amount > base_->link(id).capacity + net::Demand{1e-9}) return false;
  }
  return true;
}

AdmissionRound AdmissionController::decide(
    const std::vector<PendingRequest>& pending, CapacityLedger& ledger,
    sim::SimTime now) const {
  AdmissionRound round;
  const AdmissionTally tally{&round};
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const PendingRequest& p = pending[i];
    if (p.request->deadline > 0 && now > p.request->deadline) {
      round.rejected.emplace_back(i, RequestStatus::kRejectedDeadline);
    } else if (!statically_feasible(p.footprint)) {
      round.rejected.emplace_back(i, RequestStatus::kRejectedInfeasible);
    } else if (p.defers >= policy_.max_defers) {
      round.rejected.emplace_back(i, RequestStatus::kRejectedCapacity);
    } else {
      // chronus-lint: allow(reserve-pair) service.cpp releases each single
      (ledger.try_reserve(p.footprint) ? round.singles : round.deferred)
          .push_back(i);
    }
  }
  return round;
}

}  // namespace chronus::service
