// The online update service: Chronus as a long-running controller process.
//
// Requests arrive over virtual time and are admitted in fixed *epochs*
// (admission quanta). Every epoch boundary the dispatcher, single-threaded
// and deterministic, (1) folds due completions back into the capacity
// ledger, (2) ingests new arrivals, (3) runs one admission round
// (service/admission.hpp) that reserves ledger capacity for independent
// requests and conflict batches, (4) runs one job per reserved single and
// per batch, in round order — greedy planning against the reservation-
// restricted graph (joint planning for a batch), then timed execution
// through sim::ResilientExecutor in a private simulation of the planning
// instance with the original capacities put back — and (5) commits the
// results in request order.
//
// Jobs run inline on the dispatcher thread. A round holds about one job,
// so a worker pool spent more on threads and barriers than it won back in
// parallel (DESIGN.md §9).
//
// Determinism contract: a job is a pure function of (request, reservation
// graph, derived seed) and writes only its own result slot; every ledger
// mutation and every record update happens in request order; and
// completions are quantized to epoch boundaries and applied in (due time,
// id) order. Hence the ServiceReport is a pure function of the requests
// and the options (pinned by golden digests in tests/service_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "service/admission.hpp"
#include "service/capacity_ledger.hpp"
#include "service/request.hpp"
#include "sim/faults.hpp"
#include "sim/resilient_executor.hpp"

namespace chronus::sim {
struct ChaosScenario;
}  // namespace chronus::sim

namespace chronus::service {

/// A complete service input: the shared topology plus the request stream.
struct ServiceTrace {
  net::Graph graph;
  std::vector<UpdateRequest> requests;
};

/// Thresholds of the graceful-degradation ladder. All knobs default to 0 =
/// disabled, so a default-constructed policy leaves the dispatcher exactly
/// as it was before the ladder existed (the clean-run bit-identity tests
/// rely on this).
///
/// The ladder reads only deterministic state — the dispatcher queue depth
/// and virtual time — never the wall clock, so a degraded run replays
/// bit-identically from its seed. Escalation is immediate (an epoch whose
/// queue depth trips a higher `*_enter` threshold jumps straight to that
/// mode); de-escalation is one rung per epoch and only once the depth has
/// fallen to the current rung's `*_exit` threshold. Keeping exit below
/// enter gives the hysteresis band that stops the ladder from flapping at
/// a threshold.
struct DegradationPolicy {
  /// Watchdog: a request still queued `latency_slo` after its arrival is
  /// cancelled (kWatchdogTimeout) instead of being planned late. Virtual
  /// time, not wall time; 0 disables.
  sim::SimTime latency_slo = 0;

  /// Queue depths (pending requests at an epoch boundary) entering and
  /// leaving each rung; 0 disables the rung.
  std::size_t greedy_enter = 0;  ///< full planning -> greedy-only
  std::size_t greedy_exit = 0;
  std::size_t defer_enter = 0;   ///< greedy-only -> defer (no admissions)
  std::size_t defer_exit = 0;
  std::size_t shed_enter = 0;    ///< defer -> shed (reject the excess)
  std::size_t shed_exit = 0;     ///< shed down to this depth, then recover

  bool enabled() const {
    return latency_slo > 0 || greedy_enter > 0 || defer_enter > 0 ||
           shed_enter > 0;
  }
  /// Throws util::ContractViolation unless every enabled rung has
  /// exit < enter and the enter thresholds are non-decreasing up the
  /// ladder.
  void validate() const;
};

struct ServiceOptions {
  /// Ignored: every job runs on the dispatcher thread. Kept only because
  /// perfbench/ still assigns it; deleting it changes the benchmark.
  int workers = 4;

  /// Admission quantum: arrivals are admitted and completions released at
  /// multiples of this virtual duration.
  sim::SimTime epoch = 50 * sim::kMillisecond;

  /// Wall microseconds per abstract schedule step (and per link-delay unit
  /// of the private execution simulations).
  sim::SimTime step_unit = 50 * sim::kMillisecond;

  /// Lead time between admission and schedule step 0, covering control-
  /// channel delivery of the timed mods.
  sim::SimTime dispatch_lead = 500 * sim::kMillisecond;

  /// Data-plane scaling of the private simulations (bits/s per demand
  /// unit).
  double bps_per_unit = 500e6;

  /// Master seed; per-request streams are derived from it and the request
  /// id alone.
  std::uint64_t seed = 1;

  /// Execute plans through sim::ResilientExecutor (else planning only:
  /// durations count the schedule span alone).
  bool execute = true;

  /// Graceful-degradation ladder; default (all zero) keeps the dispatcher
  /// ladder-free.
  DegradationPolicy degradation;

  /// Always-on fault model for every private execution simulation; the
  /// default all-zero model attaches no injector, leaving runs bit-
  /// identical to the pre-fault service.
  sim::FaultModel faults;

  /// Optional chaos campaign overlaying time-varying faults on top of
  /// `faults`, compiled per admission epoch (sim/chaos.hpp). Not owned;
  /// must outlive the run. Null = no campaign.
  const sim::ChaosScenario* chaos = nullptr;

  AdmissionPolicy admission;
  core::GreedyOptions greedy{.record_steps = false};
  sim::ControlChannelModel channel{.latency_median = 10 * sim::kMillisecond,
                                   .latency_sigma = 0.5};
  sim::RetryPolicy retry;
};

class UpdateService {
 public:
  /// `base` is the shared topology every request's paths refer to.
  UpdateService(net::Graph base, ServiceOptions opts = {});

  const net::Graph& graph() const { return base_; }
  const ServiceOptions& options() const { return opts_; }

  /// Processes the whole request stream to completion and reports.
  /// Requests may be given in any order; ids must be unique.
  ServiceReport run(std::vector<UpdateRequest> requests);
  ServiceReport run(const ServiceTrace& trace) { return run(trace.requests); }

 private:
  net::Graph base_;
  ServiceOptions opts_;
};

}  // namespace chronus::service
