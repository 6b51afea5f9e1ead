// Admission control for the online update service.
//
// Each admission round walks the pending queue in service order (priority
// descending, then request id) and sorts every request into one of:
//
//  * rejected  — deadline expired, demand exceeds a link's raw capacity
//                (can never fit), or the request has been deferred more than
//                max_defers rounds (capacity starvation);
//  * single    — its full transition footprint fits the ledger headroom and
//                was reserved: it plans alone via greedy_schedule;
//  * deferred  — blocked by in-flight commitments that a future completion
//                will release; retried next round.
//
// The controller performs the reservations itself (it is only ever called
// from the service's dispatcher thread, before the round's jobs run), so a
// returned round is already capacity-consistent: the service merely has to
// release the reservations of requests whose planning later fails.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "service/capacity_ledger.hpp"
#include "service/request.hpp"

namespace chronus::service {

struct AdmissionPolicy {
  /// Admission rounds a request may sit in the queue before it is
  /// rejected with kRejectedCapacity. The default covers several in-flight
  /// completion cycles at the default epoch/dispatch lead, so contended
  /// requests wait out transient congestion instead of starving.
  int max_defers = 64;
};

/// A queued request as the admission controller sees it.
struct PendingRequest {
  const UpdateRequest* request = nullptr;
  Footprint footprint;
  int defers = 0;
};

struct AdmissionRound {
  std::vector<std::size_t> singles;  ///< footprint reserved, plan alone
  std::vector<std::size_t> deferred;
  std::vector<std::pair<std::size_t, RequestStatus>> rejected;
};

class AdmissionController {
 public:
  explicit AdmissionController(const net::Graph& base,
                               AdmissionPolicy policy = {});

  /// True iff every footprint entry fits the raw link capacity — the
  /// necessary condition for the request to ever be admitted alone.
  bool statically_feasible(const Footprint& fp) const;

  /// One admission round over `pending` (already in service order).
  /// Reserves the footprint of every single, as described above.
  AdmissionRound decide(const std::vector<PendingRequest>& pending,
                        CapacityLedger& ledger, sim::SimTime now) const;

 private:
  const net::Graph* base_;
  AdmissionPolicy policy_;
};

}  // namespace chronus::service
