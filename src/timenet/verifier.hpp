// The exact transition verifier: replays a timed update schedule in the
// time-extended network and reports every violation of the congestion-free
// condition (Definition 3, constraint (3a)) and the loop-free condition
// (Definition 2). It is the ground truth against which the greedy scheduler,
// the OPT branch-and-bound, and the baselines are evaluated (Figs. 7 and 8).
//
// Congestion is checked per time-extended link: the load on
// <u(t), v(t+sigma)> is demand times the number of injection classes that
// enter the physical link <u,v> during [t, t+1); the condition requires this
// never to exceed C_{u,v}.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/instance.hpp"
#include "timenet/schedule.hpp"
#include "timenet/trajectory.hpp"

namespace chronus::timenet {

struct CongestionEvent {
  net::LinkId link = net::kInvalidLink;
  TimePoint enter_time{};  ///< departure step of the time-extended link
  net::Demand load{};
  net::Capacity capacity{};
};

struct LoopEvent {
  TimePoint injected{};
  net::NodeId node = net::kInvalidNode;  ///< switch visited twice
};

struct BlackholeEvent {
  TimePoint injected{};
  net::NodeId node = net::kInvalidNode;
};

struct TransitionReport {
  std::vector<CongestionEvent> congestion;
  std::vector<LoopEvent> loops;
  std::vector<BlackholeEvent> blackholes;

  /// Set when the verification hit its deadline before completing; the
  /// report is then a partial under-approximation and ok() is unreliable.
  bool aborted = false;

  /// Folds another report's events into this one (used by the runtime
  /// consistency monitor to compose per-phase verifications).
  void merge(const TransitionReport& other);

  bool congestion_free() const { return congestion.empty(); }
  bool loop_free() const { return loops.empty(); }
  bool blackhole_free() const { return blackholes.empty(); }
  bool ok() const {
    return congestion_free() && loop_free() && blackhole_free();
  }

  /// Distinct congested time-extended links (the Fig. 8 metric).
  std::size_t congested_link_count() const { return congestion.size(); }

  std::string to_string(const net::Graph& g) const;
};

struct VerifyOptions {
  /// Stop after the first violation of each kind (cheaper for search).
  bool first_violation_only = false;
  /// Wall-clock budget in seconds; <= 0 disables. On expiry the report is
  /// returned with `aborted` set (Fig. 10 runs the exact methods under a
  /// deadline, like the paper's 600 s timeout).
  double deadline_sec = 0;
};

/// Verifies a single-flow transition. A schedule entry for a switch not in
/// the instance is ignored; switches without an entry keep their old rule.
TransitionReport verify_transition(const net::UpdateInstance& inst,
                                   const UpdateSchedule& sched,
                                   const VerifyOptions& opts = {});

/// Verifies several flows sharing one graph; per-link loads add up across
/// flows. Each flow is an (instance, schedule) pair over the same graph
/// object (the graph of flows[0] is used for capacities).
struct FlowTransition {
  const net::UpdateInstance* instance = nullptr;
  const UpdateSchedule* schedule = nullptr;
  /// Two-phase semantics: rules selected by the class's stamped version
  /// (see FlowView::per_packet_flip); `schedule` is ignored when set.
  std::optional<TimePoint> per_packet_flip;
};
TransitionReport verify_transitions(const std::vector<FlowTransition>& flows,
                                    const VerifyOptions& opts = {});

/// Load per time-extended link for one flow (diagnostics and Fig. 2-style
/// renderings): maps (link, enter-step) -> load.
std::map<std::pair<net::LinkId, TimePoint>, net::Demand> link_loads(
    const net::UpdateInstance& inst, const UpdateSchedule& sched);

/// Quantizes *achieved* activation instants (arbitrary integral wall-clock
/// units, e.g. microseconds) onto the abstract schedule grid: offsets are
/// taken relative to the earliest activation and rounded to the nearest
/// multiple of `step_unit`. This is how the runtime consistency monitor
/// replays what the control plane actually did — late or retried
/// activations land on later steps and surface as verifier violations.
UpdateSchedule schedule_from_activations(
    const std::map<net::NodeId, std::int64_t>& activation_times,
    std::int64_t step_unit);

}  // namespace chronus::timenet
