// Loop-free path enumeration in the time-extended network — the set P(f)
// of the paper's program (3): "The path set P(f) is pre-computed such that
// all paths are loop-free ... The resulting path set P(f) are the input in
// our formulation."
//
// A timed path for an injection class starting at v(t0) is a sequence of
// time-extended links <u(t), w(t + sigma_uw)> ending at the destination; it
// is loop-free when no switch appears twice (Definition 2). Every
// trajectory a schedule can induce for that class is a member of this set,
// which the tests use to validate the scheduler output against the ILP's
// own input space. G_T itself (Definition 4) is never expanded: the walk
// steps over the base graph's links and adds each link's delay.
#pragma once

#include <cstddef>
#include <vector>

#include "net/graph.hpp"
#include "timenet/schedule.hpp"

namespace chronus::timenet {

/// The time-extended node v(t): switch v at time step t.
struct TimedNode {
  net::NodeId node = net::kInvalidNode;
  TimePoint time{};
  bool operator==(const TimedNode&) const = default;
};

/// One timed path: the visited time-extended nodes, source first.
using TimedPath = std::vector<TimedNode>;

struct EnumerateOptions {
  /// Stop after this many paths (the set grows exponentially).
  std::size_t max_paths = 10000;
  /// Ignore paths arriving at the destination after this time.
  TimePoint t_end{};
};

/// All loop-free timed paths from src(t0) to dst, arrivals <= opts.t_end.
std::vector<TimedPath> enumerate_timed_paths(const net::Graph& g,
                                             net::NodeId src, TimePoint t0,
                                             net::NodeId dst,
                                             const EnumerateOptions& opts);

/// True iff `path` occurs in `set` (exact node-and-time match).
bool contains_path(const std::vector<TimedPath>& set, const TimedPath& path);

}  // namespace chronus::timenet
