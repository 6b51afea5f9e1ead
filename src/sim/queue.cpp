#include "sim/queue.hpp"

#include <algorithm>
#include <tuple>
#include <vector>

namespace chronus::sim {

QueueStats analyze_queue(const SimLink& link,
                         const util::StepFunction& offered_bps,
                         double buffer_bytes, SimTime t_begin, SimTime t_end) {
  QueueStats stats;
  // Value segments (from, to, offered_bps) covering [t_begin, t_end).
  std::vector<std::tuple<SimTime, SimTime, double>> segments;
  SimTime cursor = t_begin;
  double value = offered_bps.at(t_begin);
  for (const auto& [t, v] : offered_bps.breakpoints()) {
    if (t <= t_begin) {
      value = v;
      continue;
    }
    if (t >= t_end) break;
    segments.emplace_back(cursor, t, value);
    cursor = t;
    value = v;
  }
  segments.emplace_back(cursor, t_end, value);

  const double cap = link.capacity_bps;
  double queue = 0.0;  // bytes
  for (const auto& [from, to, offered] : segments) {
    SimTime at = from;
    double net_bps = offered - cap;  // queue growth rate (in bits/s)
    while (at < to) {
      const double span_s = static_cast<double>(to - at) / kSecond;
      if (net_bps > 0) {
        // Filling. Time until the buffer limit is hit, if within segment.
        const double to_full_s = (buffer_bytes - queue) * 8.0 / net_bps;
        if (queue < buffer_bytes && to_full_s > span_s) {
          queue += net_bps * span_s / 8.0;
          stats.backlogged_time += to - at;
          at = to;
        } else {
          const SimTime fill =
              queue < buffer_bytes
                  ? static_cast<SimTime>(to_full_s * kSecond)
                  : 0;
          stats.backlogged_time += std::min<SimTime>(to - at, fill);
          queue = buffer_bytes;
          const SimTime rest = to - at - fill;
          if (rest > 0) {
            // Buffer pegged: the excess rate is lost.
            stats.dropped_bytes +=
                net_bps * static_cast<double>(rest) / kSecond / 8.0;
            stats.dropping_time += rest;
            stats.backlogged_time += rest;
          }
          at = to;
        }
      } else if (queue > 0.0) {
        // Draining. Time until empty, if within segment.
        const double to_empty_s = queue * 8.0 / -net_bps;
        if (net_bps == 0.0 || to_empty_s > span_s) {
          queue += net_bps * span_s / 8.0;
          stats.backlogged_time += to - at;
          at = to;
        } else {
          const auto drain = static_cast<SimTime>(to_empty_s * kSecond);
          stats.backlogged_time += drain;
          queue = 0.0;
          at += std::max<SimTime>(drain, 1);
        }
      } else {
        at = to;  // idle or exactly at capacity with no backlog
      }
      stats.peak_queue_bytes = std::max(stats.peak_queue_bytes, queue);
    }
  }
  return stats;
}

}  // namespace chronus::sim
