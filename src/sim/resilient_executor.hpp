// A self-healing wrapper around the paper's update executors (Alg. 5, OR,
// two-phase). The seed executors fire-and-forget: a dropped or rejected
// FlowMod silently leaves the data plane inconsistent. The ResilientExecutor
// drives the same mechanisms defensively:
//
//  * Bundle-receipt confirmation (Time4 bundles ACK on commit): timed mods
//    that a fault kept from reaching their switch ahead of the execution
//    instant are recalled (bundle discard) and re-sent before t0.
//  * Per-step deadlines: after each step's barrier round the dead-reckoned
//    mod ledger is checked; missing or rejected rules are retried with
//    exponential backoff + jitter, up to RetryPolicy::max_attempts sends.
//  * Graceful degradation ladder, on retry exhaustion:
//      1. pause at the last confirmed consistent step, wait for in-flight
//         traffic to drain, re-plan the remaining suffix with the greedy
//         scheduler from the *actual applied state*, and execute it;
//      2. fall back to a two-phase (VLAN-versioned) overlay of the final
//         path — per-packet consistent regardless of timing;
//      3. roll back to the initial configuration (restore old rules
//         upstream-first, drain, delete orphaned new rules).
//  * Runtime consistency monitor: every run replays the achieved
//    activation instants through timenet::verifier and reports transient
//    congestion/loop/blackhole violations in the UpdateRunReport, along
//    with every injected fault, retry, backoff wait and fallback taken.
//
// Determinism contract: with every FaultModel knob at zero (or no injector
// attached), each run_* method issues exactly the same control messages,
// draws exactly the same RNG values and returns exactly the same
// UpdateRunResult as the corresponding seed executor — the executor only
// ever intervenes on mods whose ledger record carries a fault flag.
//
// Thread-safety contract (DESIGN.md §12): a ResilientExecutor is
// *thread-confined*, not thread-safe — it holds no mutex because it owns
// no shared state: the controller, event queue and RNG stream it drives
// are private to the service job that constructed it (exec_job builds
// one per request). Concurrency enters one layer up, at the capacity
// ledger, whose lock contract is compiler-enforced via
// util/thread_annotations.hpp. Do not share one executor across threads;
// construct one per confined simulation instead.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "sim/faults.hpp"
#include "sim/updaters.hpp"
#include "timenet/verifier.hpp"

namespace chronus::sim {

struct RetryPolicy {
  /// Total sends of one rule within one phase (first send + retries).
  int max_attempts = 3;
  /// Exponential backoff before each retry, with uniform jitter on top.
  SimTime base_backoff = 50 * kMillisecond;
  double backoff_multiplier = 2.0;
  SimTime max_backoff = 2 * kSecond;
  double jitter = 0.2;  ///< jitter fraction of the current backoff
  /// Suffix re-plans attempted before falling further down the ladder.
  int max_replans = 2;
  bool allow_two_phase_fallback = true;
  /// Wall-clock wait for in-flight traffic to drain before a re-plan or a
  /// rollback delete phase; 0 = auto (trajectory bound x step_unit).
  SimTime drain_margin = 0;
  /// Lead time between dispatching a re-planned schedule and its t0.
  SimTime dispatch_lead = 2 * kSecond;
};

struct UpdateRunReport {
  enum class Fallback { kNone, kReplan, kTwoPhase, kRollback };

  UpdateRunResult result;

  /// Faults the control plane injected during this run (snapshot diff of
  /// the attached injector; all-zero without one).
  FaultStats faults;

  int retries = 0;            ///< FlowMods re-sent beyond the first attempt
  int recalls = 0;            ///< timed bundles successfully cancelled
  int barrier_rounds = 0;     ///< barrier request/reply round-trips
  int late_activations = 0;   ///< rules active only after their deadline
  SimTime max_lateness = 0;
  std::vector<SimTime> backoff_waits;
  int replans = 0;
  int steps_confirmed = 0;
  Fallback fallback = Fallback::kNone;

  /// True iff the final configuration is fully installed (or, for a
  /// rollback, nothing is claimed: completed stays false).
  bool completed = false;
  bool rolled_back = false;
  /// Rollback only: every touched switch verifiably restored.
  bool rollback_clean = false;

  /// Post-hoc replay of the achieved activation instants through the exact
  /// time-extended verifier.
  bool verified = false;
  timenet::TransitionReport verification;

  /// Human-readable trace of every intervention.
  std::vector<std::string> events;
};

class ResilientExecutor {
 public:
  explicit ResilientExecutor(Controller& ctrl, RetryPolicy policy = {},
                             std::uint64_t jitter_seed = 0x7E57ED);

  /// Algorithm 5 with recovery: plan with the greedy scheduler, execute
  /// with confirmation, retries and the fallback ladder.
  UpdateRunReport run_chronus(const net::UpdateInstance& inst,
                              const SimFlowSpec& spec, SimTime t0,
                              SimTime step_unit,
                              const core::GreedyOptions& gopts = {});

  /// Executes a precomputed timed schedule with recovery.
  UpdateRunReport run_timed(const net::UpdateInstance& inst,
                            const SimFlowSpec& spec,
                            const timenet::UpdateSchedule& schedule,
                            SimTime t0, SimTime step_unit);

  /// Order replacement with per-round confirmation and the same ladder.
  /// `step_unit` anchors verification quantization and re-plan execution.
  UpdateRunReport run_or(const net::UpdateInstance& inst,
                         const SimFlowSpec& spec, SimTime t0,
                         SimTime step_unit,
                         const opt::OrderOptions& plan_opts = {});

  /// Two-phase with per-phase confirmation; rolls the overlay back if the
  /// install or flip cannot be confirmed. Requires versioned initial rules
  /// (install_initial_rules(..., versioned=true)).
  UpdateRunReport run_two_phase(const net::UpdateInstance& inst,
                                const SimFlowSpec& spec, SimTime t0,
                                SimTime drain_margin, SimTime step_unit);

  const RetryPolicy& policy() const { return policy_; }

 private:
  struct PlannedMod {
    net::NodeId v = net::kInvalidNode;
    timenet::TimePoint step{};
    FlowEntry entry;
    ModId id = 0;
  };
  struct TimedOutcome {
    bool complete = false;
    std::set<net::NodeId> updated;  ///< new rule verifiably active
    SimTime finish = 0;
  };

  FaultStats fault_snapshot() const;
  void note(UpdateRunReport& rep, std::string msg) const;
  SimTime backoff(UpdateRunReport& rep, int attempt);
  SimTime drain_time(const net::UpdateInstance& inst, SimTime step_unit) const;

  FlowEntry new_rule_entry(const net::UpdateInstance& inst,
                           const SimFlowSpec& spec, net::NodeId v) const;
  bool rule_active(SwitchId sw, const FlowEntry& entry) const;

  /// Sends `entry` to `sw` and confirms via barrier + ledger, retrying
  /// with backoff; returns true once the rule is verifiably installed.
  bool ensure_entry(UpdateRunReport& rep, SwitchId sw, const FlowEntry& entry);
  /// Deletes (match, priority) from `sw` and confirms; best-effort.
  bool ensure_absent(UpdateRunReport& rep, SwitchId sw, const Match& match,
                     int priority);

  TimedOutcome execute_timed_once(const net::UpdateInstance& inst,
                                  const SimFlowSpec& spec,
                                  const timenet::UpdateSchedule& schedule,
                                  SimTime t0, SimTime step_unit,
                                  UpdateRunReport& rep);

  /// The degradation ladder, entered with the stalled partial state.
  void recover(const net::UpdateInstance& inst, const SimFlowSpec& spec,
               SimTime step_unit, std::set<net::NodeId> updated,
               UpdateRunReport& rep);

  bool two_phase_overlay(const net::UpdateInstance& inst,
                         const SimFlowSpec& spec, SimTime step_unit,
                         const std::set<net::NodeId>& updated,
                         UpdateRunReport& rep);
  void rollback(const net::UpdateInstance& inst, const SimFlowSpec& spec,
                SimTime step_unit, const std::set<net::NodeId>& updated,
                UpdateRunReport& rep);

  void finalize_applied(const net::UpdateInstance& inst,
                        const SimFlowSpec& spec, UpdateRunReport& rep) const;
  void verify_timed_run(const net::UpdateInstance& inst, SimTime step_unit,
                        UpdateRunReport& rep) const;

  Controller* ctrl_;
  RetryPolicy policy_;
  util::Rng jitter_;
};

}  // namespace chronus::sim
