// Packet-trajectory tracing under a timed update schedule.
//
// The dynamic-flow semantics of the paper (Definition 1) is made concrete by
// tracing *injection classes*: the fluid injected at the source during the
// unit interval [tau, tau+1) samples, at every switch it reaches, the rule
// installed at its own arrival time. A switch v scheduled at T(v) forwards
// with the old rule strictly before T(v) and with the new rule from T(v) on.
//
// The trace of a class yields the occupied time-extended links
// <u(t), v(t+sigma)> — exactly the variables of program (3) — and detects
// violations of the loop-free condition (Definition 2: no switch is visited
// twice by the same unit of flow).
//
// The verifier and TransitionState trace thousands of classes per call, so
// tracing runs over flat storage: a RuleTable compiles a flow's rules once
// into dense per-node arrays, a Tracer walks it with an epoch-stamped
// visited array into a reused hop buffer, and LoadColumns holds the
// (link, entry step) loads as dense per-link columns. trace_class() is the
// allocating convenience form over the same tracer.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/instance.hpp"
#include "timenet/schedule.hpp"

namespace chronus::timenet {

enum class TraceEnd {
  kDelivered,  ///< reached the destination
  kBlackhole,  ///< reached a switch with no rule for the flow
  kHopLimit,   ///< exceeded the hop budget (a persistent forwarding loop)
};

struct TraceHop {
  net::NodeId node = net::kInvalidNode;
  TimePoint arrival{};  ///< time the class reaches `node`
};

/// How a traced class ended. A flat trace's hops are in the buffer it was
/// traced into; a Trace carries its own.
struct TraceResult {
  TraceEnd end = TraceEnd::kDelivered;
  net::NodeId fault_node = net::kInvalidNode;  ///< blackhole/hop-limit switch

  /// First switch visited twice, if any (Definition 2 violation). A class
  /// that revisits a switch keeps flowing — transient loops in Fig. 1 exit
  /// via v2 -> v6 and are precisely what congests that link — so a trace
  /// can be both looped and delivered.
  net::NodeId loop_node = net::kInvalidNode;

  bool delivered() const { return end == TraceEnd::kDelivered; }
  bool looped() const {
    return loop_node != net::kInvalidNode || end == TraceEnd::kHopLimit;
  }
  /// Neither a Definition-2 loop nor a blackhole.
  bool clean() const { return !looped() && end != TraceEnd::kBlackhole; }
};

struct Trace : TraceResult {
  TimePoint injected{};
  std::vector<TraceHop> hops;  ///< first hop is the source at `injected`
};

/// A flow's routing state during a transition, decoupled from
/// net::UpdateInstance so that multi-flow extensions can reuse the tracer.
struct FlowView {
  const net::Graph* graph = nullptr;
  const net::UpdateInstance* instance = nullptr;  ///< rule source
  const UpdateSchedule* schedule = nullptr;

  /// Two-phase (per-packet versioned) semantics: when set, a class uses the
  /// old rules everywhere iff it was injected before the flip and the new
  /// rules everywhere otherwise — the stamped tag, not the arrival time,
  /// selects the rule generation. `schedule` is ignored in this mode.
  std::optional<TimePoint> per_packet_flip;
};

/// One hop of a flat trace: the switch, the class's arrival there, and the
/// link it leaves by (kInvalidLink on the last hop). Hop i enters `link`
/// at `arrival`, so hops [0, size-1) are exactly the occupied
/// time-extended links.
struct FlatHop {
  net::NodeId node = net::kInvalidNode;
  net::LinkId link = net::kInvalidLink;
  TimePoint arrival{};
};

/// A flow's rules compiled once into dense per-node arrays: old and new
/// next hop, the link each uses and its delay, plus the update time of
/// every switch. The update times are kept in step with a schedule by
/// set_update / clear_update, so a probe costs no recompilation.
class RuleTable {
 public:
  /// Compiles `inst`'s rules over `g` (link ids and delays come from `g`,
  /// which must share inst's node ids). No switch is scheduled yet. A rule
  /// over a link `g` lacks compiles to a blackhole.
  RuleTable(const net::Graph& g, const net::UpdateInstance& inst);

  /// The rules, schedule and per-packet flip of `flow`.
  explicit RuleTable(const FlowView& flow);

  /// v forwards with its new rule from t on.
  void set_update(net::NodeId v, TimePoint t) { update_.at(v) = t; }
  /// v keeps its old rule forever.
  void clear_update(net::NodeId v) { update_.at(v) = kNever; }
  /// Replaces every update time by `sched`'s; entries for switches outside
  /// the graph are ignored.
  void set_schedule(const UpdateSchedule& sched);

  std::size_t node_count() const { return update_.size(); }

 private:
  friend class Tracer;

  struct Rule {
    net::NodeId next = net::kInvalidNode;
    net::LinkId link = net::kInvalidLink;  ///< kInvalidLink: blackhole
    net::Delay delay = 0;
  };
  static constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();

  std::vector<Rule> old_;
  std::vector<Rule> new_;
  std::vector<TimePoint> update_;  ///< kNever when unscheduled
  std::optional<TimePoint> flip_;
  net::NodeId src_ = net::kInvalidNode;
  net::NodeId dst_ = net::kInvalidNode;
};

/// The one tracer: walks a RuleTable with an epoch-stamped visited array
/// and writes the hops into a reused buffer. Allocation-free once the
/// buffer has grown to the longest trajectory.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(std::size_t node_count) : seen_(node_count, 0) {}

  /// Traces the class injected at `injected` into `hops` (cleared first).
  /// `hop_limit` defaults to node_count + 2 (a simple trajectory can never
  /// be longer).
  TraceResult run(const RuleTable& rules, TimePoint injected,
                  std::vector<FlatHop>& hops, int hop_limit = 0);

  /// Same, into the tracer's own buffer (see hops()).
  TraceResult run(const RuleTable& rules, TimePoint injected,
                  int hop_limit = 0) {
    return run(rules, injected, hops_, hop_limit);
  }

  /// Hops of the last run() into the tracer's own buffer.
  std::span<const FlatHop> hops() const { return hops_; }

 private:
  std::vector<std::uint32_t> seen_;  ///< == epoch_: visited by this trace
  std::uint32_t epoch_ = 0;
  std::vector<FlatHop> hops_;
};

/// Per-(link, entry step) loads as dense per-link columns over one shared
/// window of entry steps. A link's column is allocated the first time a
/// class enters it; the window widens geometrically on demand. Cells a
/// class never entered hold exactly zero.
class LoadColumns {
 public:
  /// Empties the ledger for `link_count` links, with the window pre-sized
  /// to [first, last] (a hint; at() widens past it).
  void reset(std::size_t link_count, TimePoint first, TimePoint last);

  /// The load on `link` entered at `entry`.
  net::Demand& at(net::LinkId link, TimePoint entry);

  /// `link`'s column, cell i holding entry step first() + i; empty when no
  /// class ever entered `link`.
  std::span<const net::Demand> column(net::LinkId link) const;

  TimePoint first() const { return first_; }

 private:
  static constexpr std::uint32_t kNoColumn =
      std::numeric_limits<std::uint32_t>::max();
  void widen(TimePoint entry);

  std::vector<std::uint32_t> column_of_;  ///< per link; kNoColumn
  std::vector<net::Demand> cells_;        ///< column-major, width_ per column
  std::size_t columns_ = 0;
  std::int64_t width_ = 0;
  TimePoint first_{};
};

/// The drain bound d = (n + 2) * max_delay: no single trajectory lasts
/// longer. Windows, drain margins and stall limits are sized from it.
inline std::int64_t trajectory_bound(const net::Graph& g) {
  return static_cast<std::int64_t>(g.node_count() + 2) * g.max_delay();
}

/// Traces the class injected at `injected`. `hop_limit` defaults to
/// node_count + 2 (a simple trajectory can never be longer).
Trace trace_class(const FlowView& flow, TimePoint injected, int hop_limit = 0);

/// Convenience wrapper building the FlowView from an instance.
Trace trace_class(const net::UpdateInstance& inst, const UpdateSchedule& sched,
                  TimePoint injected, int hop_limit = 0);

/// Human-readable "v1@0 -> v2@1 -> ..." for diagnostics.
std::string to_string(const net::Graph& g, const Trace& trace);

}  // namespace chronus::timenet
