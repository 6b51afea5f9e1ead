// Fluid queue analysis for links: the paper notes that OR's ~600 Mbps
// counter readings on a 500 Mbps link "can be beyond the buffer size and
// result in traffic loss". Given a link's traced offered-load function,
// this computes the drain-rate-limited queue occupancy against a finite
// buffer and the bytes lost to overflow.
#pragma once

#include "sim/network.hpp"
#include "util/step_function.hpp"

namespace chronus::sim {

struct QueueStats {
  double peak_queue_bytes = 0.0;
  double dropped_bytes = 0.0;
  /// Total time the queue was non-empty (extra latency for the traffic).
  SimTime backlogged_time = 0;
  /// Time the queue sat at the buffer limit (actively dropping).
  SimTime dropping_time = 0;
};

/// Replays `offered_bps` (the link's load from a traffic trace,
/// TrafficReport::offered_bps) through a queue draining at the link's
/// capacity with `buffer_bytes` of space over [t_begin, t_end).
QueueStats analyze_queue(const SimLink& link,
                         const util::StepFunction& offered_bps,
                         double buffer_bytes, SimTime t_begin, SimTime t_end);

}  // namespace chronus::sim
