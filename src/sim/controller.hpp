// The controller: the Floodlight substitute. It issues FlowMods over a
// control channel with log-normally distributed latency (parameterized to
// the Dionysus rule-install measurements the paper samples from), supports
// Time4-style *timed* FlowMods executed at a scheduled instant subject to
// microsecond-scale clock-synchronization error, and implements OpenFlow
// barriers (a BarrierReply is sent once all earlier mods on that switch
// have been applied).
//
// The controller owns a logical clock (`clock`): the time at which it
// issues its next command. Updaters advance it as they orchestrate rounds;
// switch-side effects are scheduled on the shared event queue.
//
// FIFO assumption: each switch applies the mods it *receives* in arrival
// order — the controller tracks the latest scheduled apply per switch
// (`last_apply_`) and never schedules an earlier one, mirroring the
// in-order OpenFlow control channel (TCP) plus in-order switch processing.
// Only the fault injector's reorder fault may break this, by letting a mod
// apply at its raw arrival instant ahead of queued predecessors.
//
// An optional FaultInjector (attach_fault_injector) subjects the control
// path to drops, duplication, reordering, rejections, stragglers,
// unresponsiveness windows and per-switch clock drift. Every issued mod
// leaves a ModRecord; records are the controller's dead-reckoned view
// (flow-stats polling / bundle-commit ACKs / OFPT_ERROR round-trips) that
// the resilient executor reads to detect missing rules — a barrier alone
// cannot reveal a *dropped* mod, which never reaches the switch.
#pragma once

#include <optional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace chronus::sim {

struct ControlChannelModel {
  /// Median one-way control latency (FlowMod issue -> switch applies).
  SimTime latency_median = 50 * kMillisecond;
  /// Log-normal sigma; ~0.8 gives the heavy tail seen in Dionysus data.
  double latency_sigma = 0.8;
  /// Stddev of the Time4 scheduled-execution error (clock sync quality).
  SimTime sync_error_stddev = 1;  // microseconds
};

using ModId = std::size_t;
inline constexpr SimTime kNever = -1;

/// The controller's ledger entry for one issued FlowMod.
struct ModRecord {
  SwitchId sw = 0;
  FlowMod mod;
  SimTime issued = 0;               ///< controller clock at send
  SimTime requested_exec = kNever;  ///< timed mods: the scheduled instant
  SimTime arrival = kNever;         ///< control-channel arrival at switch
  SimTime applied = kNever;         ///< apply instant; kNever if never applied
  bool dropped = false;    ///< lost in the control channel
  bool rejected = false;   ///< switch refused the install (error returned)
  bool duplicated = false;
  bool reordered = false;  ///< escaped the per-switch FIFO
  bool straggler = false;  ///< latency was multiplied
  bool delayed = false;    ///< pushed back by an unresponsiveness window
  bool cancelled = false;  ///< recalled before execution (bundle discard)
  EventId event = kInvalidEvent;            ///< pending apply event
  EventId duplicate_event = kInvalidEvent;  ///< second copy, if duplicated

  /// True iff any fault touched this mod (zero-fault runs never intervene
  /// on mods for which this is false — the bit-identical guarantee).
  bool faulted() const {
    return dropped || rejected || duplicated || reordered || straggler ||
           delayed;
  }
  /// True iff the mod reached the switch and mutated the table.
  bool installed() const {
    return applied != kNever && !rejected && !cancelled;
  }
};

class Controller {
 public:
  Controller(EventQueue& eq, Network& net, util::Rng& rng,
             ControlChannelModel model = {});

  /// The controller's logical clock; commands are issued at this time.
  SimTime clock() const { return clock_; }
  void advance_clock(SimTime to);

  /// Attaches (or detaches, with nullptr) a fault injector. A disabled
  /// injector — every FaultModel knob zero — leaves every code path and
  /// every RNG draw identical to the fault-free controller.
  void attach_fault_injector(FaultInjector* injector) { faults_ = injector; }
  FaultInjector* fault_injector() { return faults_; }

  /// Installs an entry immediately at the current clock (initial network
  /// configuration; no control latency, never faulted).
  void install_now(SwitchId sw, FlowEntry entry);

  /// Sends an asynchronous FlowMod; it is applied after the control
  /// latency (in FIFO order per switch). Returns the apply time.
  SimTime send_flow_mod(SwitchId sw, FlowMod mod);

  /// Sends a timed FlowMod executing at `execute_at` (plus clock error);
  /// if the mod arrives after `execute_at` it executes on arrival.
  SimTime send_timed_flow_mod(SwitchId sw, FlowMod mod, SimTime execute_at);

  /// Record-returning variants of the send calls, for callers that need to
  /// track delivery (the resilient executor).
  ModId issue_flow_mod(SwitchId sw, FlowMod mod);
  ModId issue_timed_flow_mod(SwitchId sw, FlowMod mod, SimTime execute_at);

  /// Attempts to recall a not-yet-executed mod (OpenFlow bundle discard):
  /// a cancel message races the scheduled execution over the control
  /// channel and wins only if it arrives first. Returns true on success.
  bool cancel_mod(ModId id);

  const ModRecord& record(ModId id) const { return mods_.at(id); }

  /// Dead-reckoned table state: the action the controller believes is
  /// installed at `sw` for (match, priority), i.e. the outcome of the
  /// last delivered mod on that entry; nullopt if absent or deleted.
  std::optional<Action> active_action(SwitchId sw, const Match& match,
                                      int priority) const;

  /// Earliest instant `entry`'s action became (and stayed, per records)
  /// installed at `sw`; kNever if it is not currently installed.
  SimTime activation_time(SwitchId sw, const FlowEntry& entry) const;

  /// Barrier: the time at which the BarrierReply for `sw` reaches the
  /// controller (after every mod *received by the switch* so far has been
  /// applied — a dropped mod is invisible to the barrier).
  SimTime barrier(SwitchId sw);

  /// Runs the event queue until all scheduled switch effects are applied.
  void flush();

  Network& network() { return *net_; }

 private:
  SimTime sample_latency();
  ModId issue(SwitchId sw, FlowMod mod, SimTime execute_at, bool timed);
  void check_switch(SwitchId sw) const;

  EventQueue* eq_;
  Network* net_;
  util::Rng* rng_;
  ControlChannelModel model_;
  FaultInjector* faults_ = nullptr;
  SimTime clock_ = 0;
  std::vector<SimTime> last_apply_;  // per switch: latest scheduled apply
  std::vector<ModRecord> mods_;
};

}  // namespace chronus::sim
