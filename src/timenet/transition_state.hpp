// Incremental transition verification, single- or multi-flow.
//
// The guarded greedy scheduler and the OPT branch-and-bound ask thousands
// of times per instance: "does scheduling one more switch update keep the
// transition congestion- and loop-free?". Re-verifying the whole
// time-extended network for each probe is O(window * hops); this class
// maintains the verifier's state and updates only what a probe can affect,
// giving the same verdict orders of magnitude faster.
//
// State representation (per flow), sized by the flow's own paths:
//  * the old head — every class injected before lo (= the first update
//    minus the old path's span) reaches each switch before any update, so
//    all of them follow the all-old shape; per link, the head holds one
//    class per entry step up to head_end (kept next to steady_entry);
//  * transitional classes — injected in [lo, steady_from): traced
//    individually; their per-(link, entry-step) loads are summed across
//    flows in load_;
//  * the steady tail — every class injected at or after steady_from
//    (= the flow's latest scheduled update) sees only final rules, so all
//    of them share one trajectory shape; they are represented by that
//    single shape plus, per link, the first entry step (one class enters
//    each shape link every step from there on).
// A flow with no update is one steady stream on its old path. Where old
// heads and such streams meet, they meet as in the all-old initial state,
// which initial_state_valid() judges.
//
// The maintained invariant: the current schedules are jointly congestion-
// and loop-free at every moment in time. try_update() extends a flow's
// schedule only when the invariant is preserved; undo() rolls back the
// most recent successful try_update (LIFO, for branch-and-bound
// backtracking). Rules are per flow, so a probe re-traces only the probed
// flow's classes; the shared load ledger catches cross-flow collisions.
//
// Storage is flat (the same layout the verifier uses, timenet/trajectory.hpp):
// each flow's rules are one RuleTable whose update times follow its
// schedule, class traces sit in a dense window indexed by injection step,
// and load_ is one dense Demand column per link a class has entered. A
// probe logs every class it retraces in an append-only undo log; the
// displaced trace rides in the log entry and the buffers circulate between
// window and log, so once warm a probe — accepted or rejected — allocates
// nothing. Only the probed flow's window moves. The property suites hold
// every verdict to the class-by-class verifier kept in
// tests/verifier_oracle.hpp.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "net/instance.hpp"
#include "timenet/schedule.hpp"
#include "timenet/trajectory.hpp"

namespace chronus::timenet {

class TransitionState {
 public:
  /// Single-flow state (the common case).
  explicit TransitionState(const net::UpdateInstance& inst);

  /// Multiple flows over one graph. All instances must be built over the
  /// same graph value (identical node and link ids); capacities are read
  /// from flows[0].
  explicit TransitionState(std::vector<const net::UpdateInstance*> flows);

  /// True iff the all-old steady state respects every link capacity (the
  /// combined static load of all flows). A false here means the *input*
  /// is invalid; try_update verdicts are then meaningless.
  bool initial_state_valid() const;

  /// Tries to schedule switch v's update (for the given flow) at time t on
  /// top of the current schedules. Returns true and applies it if the
  /// joint transition stays clean; otherwise leaves the state untouched
  /// and returns false.
  bool try_update(net::NodeId v, TimePoint t) { return try_update(0, v, t); }
  bool try_update(std::size_t flow, net::NodeId v, TimePoint t);

  /// Rolls back the most recent successful try_update. Undoing with no
  /// applied update throws std::logic_error.
  void undo();

  /// Single flow: the instant from which every try_update verdict
  /// repeats. It is the latest arrival of any traced class, plus twice the
  /// tail's span, plus one: a probe from there on reaches no traced class,
  /// and the classes it materializes and the tail it installs are the same
  /// shapes shifted to the probe's time. Meaningful only while the state
  /// is clean (after accepted updates).
  TimePoint settle_time() const;

  /// Number of updates currently applied (== depth of the undo stack).
  std::size_t depth() const { return depth_; }

  std::size_t flow_count() const { return flows_.size(); }
  const UpdateSchedule& schedule(std::size_t flow = 0) const {
    return flows_.at(flow).sched;
  }

 private:
  /// One traced class; no hops means no class is stored in the slot.
  struct ClassTrace {
    std::vector<FlatHop> hops;
    bool bad = false;  ///< loops or blackholes
  };

  struct FlowState {
    explicit FlowState(const net::UpdateInstance& i)
        : inst(&i), rules(i.graph(), i) {}

    const net::UpdateInstance* inst = nullptr;
    UpdateSchedule sched;
    RuleTable rules;  // sched's update times, plus the probe in flight
    // Transitional classes: classes[i] is the class injected at
    // class_base + i. Slots in [lo, hi] hold a trace; the rest are spares.
    std::vector<ClassTrace> classes;
    TimePoint class_base{};
    TimePoint lo{};
    TimePoint hi{-1};  // traced range [lo, hi]; empty when hi < lo
    // Old head: the all-old shape (arrivals relative to injection), its
    // span, and per link the entry step its classes reach (kNoHead: not
    // on it, or the flow was never updated).
    std::vector<FlatHop> old_shape;
    std::int64_t old_span = 0;
    std::vector<TimePoint> head_end;
    // Steady tail: trajectory of every class injected >= steady_from, and
    // per link the step its first class enters (kOffTail: not on it).
    ClassTrace steady_shape;
    std::vector<TimePoint> steady_entry;
    std::vector<net::LinkId> tail_links;  // links set in steady_entry
    TimePoint steady_from{};
  };

  /// One retraced class. `prev` holds the trace it displaced (no hops: the
  /// class was new); once rewound it holds a spare buffer.
  struct LogEntry {
    std::size_t flow = 0;
    TimePoint tau{};
    ClassTrace prev;
  };

  /// An applied update, or the probe in flight. Its log entries run from
  /// log_begin to the next step's log_begin (the log's end for the top
  /// step), so every class it retraced undoes with it.
  struct Step {
    std::size_t flow = 0;
    net::NodeId v = net::kInvalidNode;
    std::size_t log_begin = 0;
    TimePoint prev_lo{};
    TimePoint prev_hi{};
    ClassTrace prev_steady_shape;
    TimePoint prev_steady_from{};
  };

  static constexpr TimePoint kOffTail = std::numeric_limits<TimePoint>::max();
  static constexpr TimePoint kNoHead = std::numeric_limits<TimePoint>::min();

  /// (Re)traces transitional class tau of `flow` under its current
  /// schedule, maintaining load_ and logging the displaced trace; records
  /// the loads it adds in touched_. True on loop/blackhole.
  bool retrace(std::size_t flow, TimePoint tau);

  /// The slot of class tau, widening the flow's class window to reach it.
  ClassTrace& class_slot(FlowState& fs, TimePoint tau);

  /// Undoes the log down to `log_begin`, last entry first.
  void rewind(std::size_t log_begin);
  void rollback(Step& step);
  void add_loads(const ClassTrace& trace, net::Demand demand, double sign);

  /// Combined steady-tail load of every flow on (link, entry-step).
  net::Demand tail_load(net::LinkId link, TimePoint entry) const;
  /// The same plus every flow's old head.
  net::Demand steady_load(net::LinkId link, TimePoint entry) const;

  /// Points fs.steady_entry at fs.steady_shape's links: from "always"
  /// (a never-updated flow) or from each link's entry step.
  void set_tail(FlowState& fs, bool always);

  /// Points fs.head_end at the old shape's links, ending at fs.lo, or
  /// clears it (a never-updated flow has no head).
  void set_head(FlowState& fs, bool scheduled);

  /// Recomputes `flow`'s steady tail from `from` (its latest update time);
  /// false when the tail loops, blackholes, or collides with traced loads,
  /// other tails or other flows' heads.
  bool refresh_steady(std::size_t flow, TimePoint from);

  const net::Graph* graph_ = nullptr;
  std::int64_t d_ = 0;  // trajectory duration bound (in steps)

  std::vector<FlowState> flows_;
  // Per-link entry-step loads from transitional classes, all flows.
  LoadColumns load_;
  Tracer tracer_;

  // Undo log and step stack; entries past log_size_ / depth_ are recycled.
  std::vector<LogEntry> log_;
  std::size_t log_size_ = 0;
  std::vector<Step> steps_;
  std::size_t depth_ = 0;
  // (link, entry) of every load the probe in flight added.
  std::vector<std::pair<net::LinkId, TimePoint>> touched_;
};

}  // namespace chronus::timenet
