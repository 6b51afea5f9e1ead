#include "sim/traffic.hpp"

#include <algorithm>
#include <set>

namespace chronus::sim {

namespace {

/// Per-switch snapshot index for fast table_at lookups.
class TableOracle {
 public:
  explicit TableOracle(const Network& net) {
    snaps_.reserve(net.switch_count());
    for (SwitchId s = 0; s < net.switch_count(); ++s) {
      snaps_.push_back(net.sw(s).snapshots());
    }
  }

  /// Table of switch s at time t; nullptr when no rule was ever installed.
  const FlowTable* at(SwitchId s, SimTime t) const {
    const auto& snaps = snaps_[s];
    // Last snapshot with time <= t.
    auto it = std::upper_bound(
        snaps.begin(), snaps.end(), t,
        [](SimTime x, const auto& snap) { return x < snap.first; });
    if (it == snaps.begin()) return nullptr;
    return &std::prev(it)->second;
  }

 private:
  std::vector<std::vector<std::pair<SimTime, FlowTable>>> snaps_;
};

}  // namespace

TrafficReport trace_traffic(const Network& net,
                            const std::vector<TrafficFlow>& flows,
                            const TraceOptions& opts) {
  TrafficReport report;
  report.offered_bps.resize(net.link_count());
  const TableOracle oracle(net);

  for (const TrafficFlow& flow : flows) {
    // Loops/drops repeat for every class while the faulty rules persist;
    // report each (switch) once per flow to keep reports readable.
    std::set<SwitchId> loop_seen;
    std::set<SwitchId> drop_seen;

    for (SimTime tau = opts.t_begin; tau < opts.t_end; tau += opts.quantum) {
      PacketHeader hdr = flow.header;
      SwitchId at = flow.ingress;
      SimTime now = tau;
      std::set<SwitchId> visited{at};

      for (int hop = 0; hop < opts.hop_limit; ++hop) {
        const FlowTable* table = oracle.at(at, now);
        const FlowEntry* entry = table ? table->lookup(hdr) : nullptr;
        if (!entry || entry->action.type == ActionType::kDrop) {
          if (drop_seen.insert(at).second) {
            report.drops.push_back(TrafficDropEvent{flow.name, tau, at});
          }
          break;
        }
        if (entry->action.type == ActionType::kSetVlanAndOutput) {
          hdr.vlan = entry->action.set_vlan;
        }
        if (entry->action.out_port == kHostPort) break;  // delivered
        const auto link_id = net.link_on_port(at, entry->action.out_port);
        if (!link_id) {
          if (drop_seen.insert(at).second) {
            report.drops.push_back(TrafficDropEvent{flow.name, tau, at});
          }
          break;
        }
        const SimLink& link = net.link(*link_id);
        report.offered_bps[*link_id].add(now, now + opts.quantum,
                                         flow.rate_bps);
        now += link.delay;
        at = link.dst;
        hdr.in_port = link.dst_port;
        if (!visited.insert(at).second) {
          if (loop_seen.insert(at).second) {
            report.loops.push_back(TrafficLoopEvent{flow.name, tau, at});
          }
          break;  // looping fluid is dropped after the first revisit
        }
      }
    }
  }

  // Congestion: contiguous intervals where offered exceeds capacity.
  for (net::LinkId id = 0; id < net.link_count(); ++id) {
    util::StepFunction& offered = report.offered_bps[id];
    offered.normalize();
    const double cap = net.link(id).capacity_bps * (1.0 + 1e-9);

    // Value segments (from, to, value) covering [t_begin, t_end).
    std::vector<std::tuple<SimTime, SimTime, double>> segments;
    SimTime cursor = opts.t_begin;
    double value = offered.at(opts.t_begin);
    for (const auto& [t, v] : offered.breakpoints()) {
      if (t <= opts.t_begin) {
        value = v;
        continue;
      }
      if (t >= opts.t_end) break;
      segments.emplace_back(cursor, t, value);
      cursor = t;
      value = v;
    }
    segments.emplace_back(cursor, opts.t_end, value);

    bool in_event = false;
    LinkCongestionEvent open;
    for (const auto& [from, to, v] : segments) {
      if (v > cap) {
        if (!in_event) {
          open = LinkCongestionEvent{id, from, to, v};
          in_event = true;
        } else {
          open.to = to;
          open.peak_bps = std::max(open.peak_bps, v);
        }
      } else if (in_event) {
        report.congestion.push_back(open);
        in_event = false;
      }
    }
    if (in_event) report.congestion.push_back(open);
  }
  return report;
}

std::vector<double> bandwidth_series(const TrafficReport& traffic,
                                     net::LinkId link, SimTime t_begin,
                                     SimTime t_end, SimTime interval) {
  std::vector<double> out;
  const util::StepFunction& f = traffic.offered_bps.at(link);
  for (SimTime t = t_begin; t + interval <= t_end; t += interval) {
    out.push_back(f.integral(t, t + interval) / static_cast<double>(interval));
  }
  return out;
}

}  // namespace chronus::sim
