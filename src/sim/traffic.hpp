// The fluid data plane: traces injection classes of each traffic aggregate
// through the switches' time-resolved flow tables and accumulates per-link
// offered load, transient loops and drops.
//
// A class is the fluid injected during one quantum [tau, tau+q). It samples
// every switch's table at its own arrival time (reconstructed from the
// switch's FlowMod log), so in-flight traffic keeps following the rules it
// saw — the asynchrony that makes naive updates unsafe. VLAN stamping
// actions rewrite the class's header on the way (two-phase versioning).
//
// The offered load is the trace's result, not the network's state: it is
// returned in the TrafficReport, and the network is only read.
#pragma once

#include <string>
#include <vector>

#include "sim/network.hpp"
#include "util/step_function.hpp"

namespace chronus::sim {

struct TrafficFlow {
  std::string name;
  PacketHeader header;     ///< as injected by the host (in_port set to host)
  SwitchId ingress = 0;
  double rate_bps = 0.0;
};

struct TrafficLoopEvent {
  std::string flow;
  SimTime injected = 0;
  SwitchId at = 0;  ///< switch revisited
};

struct TrafficDropEvent {
  std::string flow;
  SimTime injected = 0;
  SwitchId at = 0;  ///< switch with no matching rule (or drop action)
};

struct LinkCongestionEvent {
  net::LinkId link = net::kInvalidLink;
  SimTime from = 0;
  SimTime to = 0;       ///< interval with offered > capacity
  double peak_bps = 0.0;
};

struct TrafficReport {
  std::vector<TrafficLoopEvent> loops;
  std::vector<TrafficDropEvent> drops;
  std::vector<LinkCongestionEvent> congestion;

  /// Offered load in bit/s over time, one function per link id. The
  /// paper's byte counters integrate this (buffers absorb transients, so a
  /// counter difference can exceed capacity — exactly Fig. 6's 600 Mbps
  /// reading on a 500 Mbps link).
  std::vector<util::StepFunction> offered_bps;

  bool clean() const {
    return loops.empty() && drops.empty() && congestion.empty();
  }
};

struct TraceOptions {
  SimTime t_begin = 0;
  SimTime t_end = 0;
  SimTime quantum = kMillisecond;  ///< injection-class granularity
  int hop_limit = 64;
};

/// Traces all flows over [t_begin, t_end) and returns every link's
/// offered load with the violations found.
TrafficReport trace_traffic(const Network& net,
                            const std::vector<TrafficFlow>& flows,
                            const TraceOptions& opts);

/// Windowed bandwidth series for one link of a trace: the value at index k
/// is the average offered load (bit/s) during
/// [t_begin + k*interval, .. +interval), i.e., what the Floodlight
/// statistics module computes from byte-counter differences.
std::vector<double> bandwidth_series(const TrafficReport& traffic,
                                     net::LinkId link, SimTime t_begin,
                                     SimTime t_end, SimTime interval);

}  // namespace chronus::sim
