// A simulated OpenFlow switch: a flow table mutated by FlowMods over
// simulation time, with the full modification log retained so the data
// plane tracer can reconstruct the table at any instant (table_at) —
// in-flight packets must see the rules of their own arrival time.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/flow_table.hpp"
#include "sim/sim_time.hpp"

namespace chronus::sim {

using SwitchId = std::uint32_t;

enum class FlowModType { kAdd, kModifyStrict, kDeleteStrict };

struct FlowMod {
  FlowModType type = FlowModType::kAdd;
  FlowEntry entry;  // match+priority identify the target; action applies
};

class SimSwitch {
 public:
  /// The switch mirroring graph node `id` (its name stays in the graph).
  explicit SimSwitch(SwitchId id) : id_(id) {}

  SwitchId id() const { return id_; }

  /// Applies a FlowMod at simulation time `at`. Times must be non-
  /// decreasing across calls (the event queue guarantees this).
  void apply(SimTime at, const FlowMod& mod);

  /// Records a FlowMod the switch received but refused to install
  /// (fault-injected OFPT_ERROR: table full, bad table id, ...). The flow
  /// table is untouched; only the rejection log grows.
  void reject(SimTime at, const FlowMod& mod);

  /// Current (latest) table.
  const FlowTable& table() const { return table_; }

  /// Table as it stood at time `t` (entries applied at exactly `t` are
  /// visible — a rule scheduled for T takes effect at T).
  FlowTable table_at(SimTime t) const;

  /// Largest table size ever reached (rule-space peak, Fig. 9).
  std::size_t peak_table_size() const { return peak_size_; }

  /// Number of FlowMods applied.
  std::size_t mods_applied() const { return log_.size(); }

  /// Number of FlowMods refused (fault injection).
  std::size_t mods_rejected() const { return rejections_.size(); }

  /// All (time, size) points where the table size changed.
  std::vector<std::pair<SimTime, std::size_t>> size_history() const;

  /// Table snapshots after every FlowMod, oldest first (snapshot i is the
  /// table from log time i until the next mod). The tracer binary-searches
  /// these instead of replaying the log per lookup.
  std::vector<std::pair<SimTime, FlowTable>> snapshots() const;

 private:
  struct LogEntry {
    SimTime at;
    FlowMod mod;
  };

  SwitchId id_;
  FlowTable table_;
  std::vector<LogEntry> log_;
  std::vector<LogEntry> rejections_;
  std::size_t peak_size_ = 0;
};

}  // namespace chronus::sim
