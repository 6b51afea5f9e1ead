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
// visited array into a reused hop buffer, and a LoadLedger holds the
// (link, entry step) loads as per-link runs of class counts. trace_class()
// is the allocating convenience form over the same tracer.
#pragma once

#include <algorithm>
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

/// Per-(link, entry step) loads as runs of class counts: per link and
/// flow, a flat sorted list of disjoint pieces {first, last, count} —
/// `count` classes of the flow enter the link at every step in
/// [first, last]. A traced class is a unit piece per occupied link, a
/// closed-form run (an old head from kBefore, a steady tail to kAfter) one
/// piece per link of its shape; equal neighbours merge. scan() folds the
/// flows in order, one addition of the flow's demand per class: bit for
/// bit the sum a class-by-class pass makes (tests/verifier_oracle.hpp).
///
/// Only a link that was given a piece holds a row of piece lists: a
/// request's transition loads a dozen links of a topology of hundreds, so
/// reset() and the verifier's congestion pass (which walks touched()) cost
/// what the flows touched, not what the graph has.
class LoadLedger {
 public:
  /// Open ends of a piece: every entry step before / after.
  static constexpr TimePoint kBefore = std::numeric_limits<TimePoint>::min();
  static constexpr TimePoint kAfter = std::numeric_limits<TimePoint>::max();

  /// Empties the ledger for `link_count` links and one flow per demand,
  /// keeping every buffer; only the rows of touched() links are cleared.
  void reset(std::size_t link_count, std::span<const net::Demand> demands);

  /// Adds `count` classes of `flow` (removes them when negative) entering
  /// `link` at every step in [first, last]. Counts never go below zero.
  void add(net::LinkId link, std::size_t flow, TimePoint first,
           TimePoint last, int count);

  /// Calls fn(first, last, load) for the entered steps of `link` in
  /// [from, to] (from <= to), ascending, one call per stretch of constant
  /// load. Stops early, returning false, when fn does.
  template <class Fn>
  bool scan(net::LinkId link, TimePoint from, TimePoint to, Fn&& fn);

  /// The links given a piece since the last reset, in the order of their
  /// first add. A link whose pieces were all removed again stays listed
  /// (its scan() reports nothing); every other link holds no piece.
  std::span<const net::LinkId> touched() const { return touched_; }

  /// Pieces held over every link and flow.
  std::size_t pieces() const { return pieces_held_; }

 private:
  struct Piece {
    TimePoint first{};
    TimePoint last{};
    int count = 0;
  };
  static constexpr std::uint32_t kNoRow =
      std::numeric_limits<std::uint32_t>::max();

  /// Row of `link`, made on its first add.
  std::size_t row(net::LinkId link);

  std::vector<Piece>& slot(std::size_t row, std::size_t flow) {
    return rows_[row * demand_.size() + flow];
  }

  std::vector<std::uint32_t> row_of_;     ///< per link: its row, or kNoRow
  std::vector<net::LinkId> touched_;      ///< the link of each row
  std::vector<std::vector<Piece>> rows_;  ///< row-major, one per flow
  std::vector<net::Demand> demand_;       ///< per flow
  std::vector<Piece> rebuilt_;            ///< add()'s new pieces
  std::vector<std::size_t> cursor_;       ///< scan()'s per-flow position
  std::size_t pieces_held_ = 0;
};

/// Classes of one flow on one shape: each enters the same links as the
/// class injected a step before it, one step later. Classes added one
/// stretch at a time gather into the open run while they extend it, and
/// leave it as one piece per link when it closes, so a stretch of
/// same-shape classes costs one ledger add per link, not one per class.
class ClassRun {
 public:
  /// Gathers `count` classes of `flow` injected in [first, last], each
  /// following `hops` (traced for the class injected at `first`; hops
  /// without a link are skipped). When they do not extend the open run,
  /// it is spilled into `sink` first (see spill()).
  template <class Sink>
  void gather(std::size_t flow, std::span<const FlatHop> hops,
              TimePoint first, TimePoint last, int count, Sink&& sink) {
    if (extend(flow, hops, first, last, count)) return;
    spill(sink);
    open(flow, hops, first, last, count);
  }

  /// Empties the open run into sink(link, flow, first, last, count), one
  /// call per link of its shape. A ledger read needs every run that adds
  /// to it spilled.
  template <class Sink>
  void spill(Sink&& sink) {
    if (count_ == 0) return;
    for (const Entry& e : shape_) {
      sink(e.link, flow_, first_ + e.offset, last_ + e.offset, count_);
    }
    count_ = 0;
  }

 private:
  struct Entry {
    net::LinkId link = net::kInvalidLink;
    std::int64_t offset = 0;  ///< entry step minus injection step
  };

  /// Folds the classes into the open run if they extend it.
  bool extend(std::size_t flow, std::span<const FlatHop> hops,
              TimePoint first, TimePoint last, int count) {
    if (count_ == 0 || flow != flow_ || count != count_) return false;
    if (first != last_ + 1 && last != first_ - 1) return false;
    std::size_t i = 0;
    for (const FlatHop& hop : hops) {
      if (hop.link == net::kInvalidLink) continue;
      if (i == shape_.size() || shape_[i].link != hop.link ||
          shape_[i].offset != hop.arrival - first) {
        return false;
      }
      ++i;
    }
    if (i != shape_.size()) return false;
    first_ = std::min(first_, first);
    last_ = std::max(last_, last);
    return true;
  }

  void open(std::size_t flow, std::span<const FlatHop> hops, TimePoint first,
            TimePoint last, int count) {
    shape_.clear();
    for (const FlatHop& hop : hops) {
      if (hop.link != net::kInvalidLink) {
        shape_.push_back(Entry{hop.link, hop.arrival - first});
      }
    }
    flow_ = flow;
    first_ = first;
    last_ = last;
    count_ = count;
  }

  std::vector<Entry> shape_;
  std::size_t flow_ = 0;
  TimePoint first_{};
  TimePoint last_{};
  int count_ = 0;  ///< 0: no open run
};

template <class Fn>
bool LoadLedger::scan(net::LinkId link, TimePoint from, TimePoint to,
                      Fn&& fn) {
  const std::uint32_t r = row_of_[link];
  if (r == kNoRow) return true;  // no piece: no entered step
  for (std::size_t f = 0; f < demand_.size(); ++f) {
    const std::vector<Piece>& pieces = slot(r, f);
    cursor_[f] = static_cast<std::size_t>(
        std::partition_point(pieces.begin(), pieces.end(),
                             [&](const Piece& p) { return p.last < from; }) -
        pieces.begin());
  }
  for (TimePoint at = from;;) {
    // The stretch from `at` ends where some flow's piece ends or begins.
    TimePoint end = to;
    net::Demand x{};
    bool entered = false;
    for (std::size_t f = 0; f < demand_.size(); ++f) {
      const std::vector<Piece>& pieces = slot(r, f);
      std::size_t& i = cursor_[f];
      while (i < pieces.size() && pieces[i].last < at) ++i;
      if (i == pieces.size()) continue;
      const Piece& p = pieces[i];
      if (p.first > at) {
        end = std::min(end, p.first - 1);
        continue;
      }
      entered = true;
      for (int c = 0; c < p.count; ++c) x += demand_[f];
      end = std::min(end, p.last);
    }
    if (entered && !fn(at, end, x)) return false;
    if (end == to) return true;
    at = end + 1;
  }
}

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
