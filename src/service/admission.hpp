// Admission control for the online update service.
//
// Each admission round walks the pending queue in service order (priority
// descending, then request id) and sorts every request into one of:
//
//  * rejected  — deadline expired, demand exceeds a link's raw capacity
//                (can never fit), or the request has been deferred more than
//                max_defers rounds (capacity starvation);
//  * single    — its full transition footprint fits the ledger headroom and
//                was reserved: it plans independently via greedy_schedule;
//  * joint     — its footprint does not fit, but it conflicts (shares
//                footprint links) with other same-round candidates —
//                leftovers or already-reserved singles. A leftover's
//                unavoidable start/end load exceeds the current headroom,
//                so headroom scraps alone can never rescue it; a
//                conflicting neighbour that *vacates* the contested link
//                can. The conflict component pools its singles'
//                reservations back into the headroom, reserves
//                min(sum-of-footprints, headroom) per link, and is planned
//                together via schedule_flows_jointly, which orders the
//                vacating transitions ahead of the entering ones inside
//                the shared window;
//  * deferred  — blocked by in-flight commitments that a future completion
//                will release (or its conflict component was a singleton or
//                exceeded max_joint_batch); retried next round.
//
// The controller performs the reservations itself (it is only ever called
// from the service's dispatcher thread, between worker-pool barriers), so a
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
  /// Rounds a leftover must have waited before it may trigger a joint
  /// batch. Batching pulls conflicting singles out of their fast path, so
  /// it is reserved for requests that plain in-flight turnover has not
  /// unblocked.
  int joint_after_defers = 4;
  /// Largest joint batch attempted; bigger conflict components fall back
  /// to individual treatment (singles stay single, leftovers deferred).
  std::size_t max_joint_batch = 6;
};

/// A queued request as the admission controller sees it.
struct PendingRequest {
  const UpdateRequest* request = nullptr;
  Footprint footprint;
  int defers = 0;
  /// Rounds left before the request may trigger another joint batch; the
  /// service arms this after a failed joint plan so doomed conflict groups
  /// are not re-attempted every epoch.
  int joint_cooldown = 0;
};

/// A conflict group admitted for joint planning. `reservation` is what was
/// committed on the ledger — per touched link the smaller of the members'
/// combined footprint and the headroom at decision time; the joint plan is
/// verified against exactly these capacities, so the reservation bounds the
/// group's transient load.
struct JointGroup {
  std::vector<std::size_t> members;  ///< indices into the pending queue
  Footprint reservation;
};

struct AdmissionRound {
  std::vector<std::size_t> singles;  ///< footprint reserved, plan alone
  std::vector<JointGroup> groups;
  std::vector<std::size_t> deferred;
  std::vector<std::pair<std::size_t, RequestStatus>> rejected;
};

class AdmissionController {
 public:
  explicit AdmissionController(const net::Graph& base,
                               AdmissionPolicy policy = {});

  const AdmissionPolicy& policy() const { return policy_; }

  /// True iff every footprint entry fits the raw link capacity — the
  /// necessary condition for the request to ever be admitted alone.
  bool statically_feasible(const Footprint& fp) const;

  /// One admission round over `pending` (already in service order).
  /// Reserves capacity for singles and joint groups as described above.
  /// `joint` gates joint batching for this round: when false, leftovers
  /// are deferred instead of batched. The service clears it on the
  /// greedy-only degradation rung.
  AdmissionRound decide(const std::vector<PendingRequest>& pending,
                        CapacityLedger& ledger, sim::SimTime now,
                        bool joint) const;

 private:
  const net::Graph* base_;
  AdmissionPolicy policy_;
};

}  // namespace chronus::service
