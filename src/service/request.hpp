// The request/response vocabulary of the online update service.
//
// The offline planners take one pre-assembled instance (or flow set); the
// service instead receives a *stream* of UpdateRequests — "move flow f from
// p_init to p_fin, demand d, before this deadline" — arriving over virtual
// time, and answers each with a RequestRecord describing what happened to
// it: admitted (alone or in a joint batch), deferred-then-admitted,
// rejected by the admission controller, or failed in execution. A
// ServiceReport aggregates the per-request records into the service-level
// metrics (throughput, latency percentiles, rejection breakdown).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/path.hpp"
#include "sim/sim_time.hpp"

namespace chronus::service {

/// The latest virtual arrival the service accepts: 2^62 microseconds,
/// about 146 000 years. The dispatcher rounds arrivals up to epoch
/// boundaries and adds planning and execution spans to them; past this
/// horizon those sums could overflow the int64 clock. Parsers of outside
/// input reject later arrivals.
inline constexpr sim::SimTime kMaxArrival = sim::SimTime{1} << 62;

/// One reroute request: transition a flow of `demand` units from `p_init`
/// to `p_fin` on the service's shared base graph.
struct UpdateRequest {
  std::uint64_t id = 0;
  std::string name;        ///< flow label; defaults to "r<id>" when empty
  net::Path p_init;
  net::Path p_fin;
  net::Demand demand{1.0};
  sim::SimTime arrival = 0;   ///< virtual arrival instant (microseconds),
                              ///< in [0, kMaxArrival]
  sim::SimTime deadline = 0;  ///< absolute virtual deadline; 0 = none
  int priority = 0;           ///< higher is served first within a round
};

enum class RequestStatus {
  kPending,             ///< not yet decided (only seen mid-run)
  kCompleted,           ///< planned, executed, commitments released
  kRejectedInfeasible,  ///< demand exceeds a link's raw capacity
  kRejectedDeadline,    ///< deadline passed while queued
  kRejectedCapacity,    ///< gave up after max_defers admission rounds
  kFailed,              ///< admitted but planning/execution failed
  kShedOverload,        ///< shed by the degradation ladder under overload
  kWatchdogTimeout,     ///< planning cancelled past the latency SLO
};

const char* to_string(RequestStatus s);

/// The graceful-degradation ladder's health states, escalating with
/// dispatcher-queue pressure: full planning (joint batching + execution)
/// -> greedy-only (joint batching disabled) -> defer (no admissions while
/// the backlog can still drain through completions or keeps growing) ->
/// shed (excess queue entries rejected outright). The dispatcher walks the
/// ladder on queue-depth thresholds with hysteresis
/// (service::DegradationPolicy) and records the mode each request was
/// decided under.
enum class DegradationMode {
  kFull = 0,
  kGreedyOnly = 1,
  kDefer = 2,
  kShed = 3,
};

const char* to_string(DegradationMode m);

/// Everything the service learned about one request.
struct RequestRecord {
  std::uint64_t id = 0;
  RequestStatus status = RequestStatus::kPending;

  sim::SimTime arrival = 0;
  sim::SimTime admitted = 0;    ///< admission round that reserved capacity
  sim::SimTime completed = 0;   ///< virtual completion (release) instant
  int defers = 0;               ///< admission rounds spent waiting

  bool joint = false;           ///< planned via schedule_flows_jointly
  std::uint64_t batch = 0;      ///< joint batch id (joint records only)

  std::int64_t plan_span = 0;       ///< schedule steps of the plan
  sim::SimTime exec_duration = 0;   ///< simulated execution wall time
  int exec_retries = 0;             ///< resilient-executor interventions
  std::uint64_t faults = 0;         ///< faults injected during execution

  /// Health state the dispatcher was in when this request was decided
  /// (admitted, shed or watchdog-cancelled).
  DegradationMode degradation = DegradationMode::kFull;

  /// Re-verification verdicts: the plan under the ledger-restricted
  /// capacities (the reservation bound) and the achieved activations under
  /// the original capacities.
  bool plan_verified = false;
  bool run_verified = false;
  int violations = 0;  ///< total verifier events across both checks

  std::string message;

  sim::SimTime latency() const { return completed - arrival; }
  sim::SimTime wait() const { return admitted - arrival; }
  bool accepted() const {
    return status == RequestStatus::kCompleted ||
           status == RequestStatus::kFailed;
  }
};

/// Service-level outcome of one trace run.
struct ServiceReport {
  std::vector<RequestRecord> records;  ///< one per request, by request id

  sim::SimTime makespan = 0;     ///< virtual time until the last release
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t rejected_infeasible = 0;
  std::size_t rejected_deadline = 0;
  std::size_t rejected_capacity = 0;
  std::size_t joint_batches = 0;
  std::size_t admission_rounds = 0;
  std::size_t shed = 0;                ///< requests shed under overload
  std::size_t watchdog_cancelled = 0;  ///< planning cancelled past the SLO
  std::uint64_t faults_injected = 0;   ///< chaos faults across all records
  int violations = 0;            ///< verifier events across all records
  double peak_utilization = 0.0; ///< max over links of committed/capacity

  /// Every degradation-ladder transition the dispatcher took, in epoch
  /// order — the campaign's health trajectory. Empty for a run that never
  /// left full planning, so clean runs digest identically to the
  /// pre-ladder format.
  std::vector<std::pair<sim::SimTime, DegradationMode>> health_log;

  std::size_t total() const { return records.size(); }
  std::size_t rejected() const {
    return rejected_infeasible + rejected_deadline + rejected_capacity +
           shed + watchdog_cancelled;
  }
  double rejection_rate() const {
    return records.empty()
               ? 0.0
               : static_cast<double>(rejected()) /
                     static_cast<double>(records.size());
  }
  /// Completed requests per virtual second.
  double throughput_hz() const;
  /// Mean / percentile completion latency (microseconds) over completed
  /// requests; 0 when none completed. `p` is in [0, 100] (95 = p95).
  double mean_latency() const;
  double latency_percentile(double p) const;

  /// Aggregates the per-record fields above; call once after the records
  /// are final.
  void finalize();

  /// Human-readable summary table plus one line per rejected request.
  std::string to_string() const;

  /// Canonical one-line digest of every record, for determinism checks:
  /// two runs are considered identical iff their digests match.
  std::string digest() const;
};

}  // namespace chronus::service
