// Incremental transition verification, single- or multi-flow.
//
// The guarded greedy scheduler and the OPT branch-and-bound ask thousands
// of times per instance: "does scheduling one more switch update keep the
// transition congestion- and loop-free?". Re-verifying the whole
// time-extended network for each probe is O(window * hops); this class
// maintains the verifier's state and updates only what a probe can affect,
// giving the same verdict orders of magnitude faster.
//
// State representation (per flow), sized by the flow's own paths, all in
// one LoadLedger (timenet/trajectory.hpp):
//  * the old head — every class injected before lo (= the first update
//    minus the old path's span) reaches each switch before any update, so
//    all follow the all-old shape: one piece (kBefore, lo + offset - 1]
//    per link of it;
//  * transitional classes — injected in [lo, steady_from): traced one by
//    one, a unit piece per hop;
//  * the steady tail — every class injected at or after steady_from
//    (= the flow's latest update) sees only final rules, so all share one
//    shape: one piece [entry, kAfter) per link of it.
// A flow with no update is one stream on its old path, (kBefore, kAfter)
// per link. Where old heads and such streams meet, they meet as in the
// all-old initial state, which initial_state_valid() judges.
//
// The maintained invariant: the current schedules are jointly congestion-
// and loop-free at every moment in time. try_update() extends a flow's
// schedule only when the invariant is preserved; undo() rolls back the
// most recent successful try_update (LIFO, for branch-and-bound
// backtracking). Rules are per flow, so a probe re-traces only the probed
// flow's classes; the shared ledger catches cross-flow collisions.
//
// Each flow's rules are one RuleTable whose update times follow its
// schedule; class traces sit in a dense window indexed by injection step.
// A retraced class moves from its old trace (or, leaving the head or the
// tail, from that shape) to its new one; the links both share up to where
// they part stay put, and classes that move alike gather into ClassRuns,
// so a probe costs a few ledger adds per link. Retraced classes and
// ledger adds go into append-only undo logs, replayed inverted on
// rollback; trace buffers circulate between window and log, so once warm
// a probe — accepted or rejected — allocates nothing. The property suites
// hold every verdict to the class-by-class verifier kept in
// tests/verifier_oracle.hpp.
#pragma once

#include <cstdint>
#include <span>
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
    // Old head: the all-old shape (arrivals relative to injection) and its
    // span. A never-updated flow has no head.
    std::vector<FlatHop> old_shape;
    std::int64_t old_span = 0;
    // Steady tail: trajectory of the class injected at steady_from, which
    // every later class (every class, before the first update) follows.
    ClassTrace steady_shape;
    TimePoint steady_from{};
  };

  /// One retraced class. `prev` holds the trace it displaced (no hops: the
  /// class was new); once rewound it holds a spare buffer.
  struct LogEntry {
    std::size_t flow = 0;
    TimePoint tau{};
    ClassTrace prev;
  };

  /// `count` classes of `flow` entering `link` at steps [first, last].
  struct Stretch {
    net::LinkId link = net::kInvalidLink;
    std::size_t flow = 0;
    TimePoint first{};
    TimePoint last{};
    int count = 0;
  };

  /// An applied update, or the probe in flight. Its log entries run from
  /// log_begin, and its ledger adds from adds_begin, to the next step's
  /// (the logs' ends for the top step), so every class it retraced and
  /// every load it moved undo with it.
  struct Step {
    std::size_t flow = 0;
    net::NodeId v = net::kInvalidNode;
    std::size_t log_begin = 0;
    std::size_t adds_begin = 0;
    TimePoint prev_lo{};
    TimePoint prev_hi{};
    ClassTrace prev_steady_shape;
    TimePoint prev_steady_from{};
  };

  /// (Re)traces transitional class tau of `flow` under its current
  /// schedule, logging the displaced trace; its loads move through
  /// leaving_ and arriving_, the cells it enters through touching_. A
  /// class with no trace yet leaves a closed form: it followed `closed`,
  /// the shape traced for the class injected at `closed_at`. True on
  /// loop/blackhole.
  bool retrace(std::size_t flow, TimePoint tau,
               std::span<const FlatHop> closed = {},
               TimePoint closed_at = TimePoint{});

  /// The slot of class tau, widening the flow's class window to reach it.
  ClassTrace& class_slot(FlowState& fs, TimePoint tau);

  /// Undoes `step`: its log entries and ledger adds, and its flow's
  /// window and tail.
  void rollback(Step& step);

  /// Adds to the ledger and logs the add for undo.
  void log_add(net::LinkId link, std::size_t flow, TimePoint first,
               TimePoint last, int count) {
    ledger_.add(link, flow, first, last, count);
    adds_.push_back(Stretch{link, flow, first, last, count});
  }
  /// ClassRun sinks: log_add(), and appending to touched_.
  auto logged() {
    return [this](auto... stretch) { log_add(stretch...); };
  }
  auto touch() {
    return [this](auto... stretch) { touched_.push_back(Stretch{stretch...}); };
  }

  /// Moves `flow`'s steady tail from shape `from`, shifted `shift` steps
  /// later, to shape `to`, a tail being one piece [entry, kAfter) per
  /// link of its shape: a link both hold moves its piece's start.
  void move_tail(std::size_t flow, std::span<const FlatHop> from,
                 std::int64_t shift, std::span<const FlatHop> to);

  /// Moves the probed flow's steady tail from the one parked in `step` to
  /// the one from `from` (its latest update time); false when the tail
  /// loops, blackholes, or some load at or after its start on one of its
  /// links exceeds the capacity.
  bool refresh_steady(const Step& step, TimePoint from);

  const net::Graph* graph_ = nullptr;
  std::int64_t d_ = 0;  // trajectory duration bound (in steps)

  std::vector<FlowState> flows_;
  // Every flow's head, traced classes and tail.
  LoadLedger ledger_;
  // The probe in flight's class moves and new cells, gathered into runs
  // on their way to the ledger and to touched_.
  ClassRun leaving_;
  ClassRun arriving_;
  ClassRun touching_;
  std::vector<FlatHop> closed_;  // retrace()'s shifted closed-form shape
  std::vector<std::int64_t> tail_at_;  // move_tail()'s per-link hop; -1
  Tracer tracer_;

  // Undo logs and step stack; entries past log_size_ / depth_ are
  // recycled.
  std::vector<LogEntry> log_;
  std::size_t log_size_ = 0;
  std::vector<Stretch> adds_;
  std::vector<Step> steps_;
  std::size_t depth_ = 0;
  // Every cell the probe in flight's new traces enter.
  std::vector<Stretch> touched_;
};

}  // namespace chronus::timenet
