#include "timenet/path_enum.hpp"

#include <algorithm>

namespace chronus::timenet {

namespace {

// Depth-first walk over the base graph's out-links. The visited filter is a
// flat byte mask and the growing path one vector, so a step costs two
// array writes.
void dfs(const net::Graph& g, net::NodeId dst, const EnumerateOptions& opts,
         TimedPath& current, std::vector<unsigned char>& visited,
         std::vector<TimedPath>& out) {
  if (out.size() >= opts.max_paths) return;
  const TimedNode at = current.back();
  if (at.node == dst) {
    out.push_back(current);
    return;
  }
  for (const net::LinkId id : g.out_links(at.node)) {
    const net::Link& l = g.link(id);
    const TimePoint arrival = at.time + l.delay;
    if (arrival > opts.t_end) continue;
    if (visited[l.dst] != 0) continue;  // Definition 2: no switch twice
    visited[l.dst] = 1;
    current.push_back(TimedNode{l.dst, arrival});
    dfs(g, dst, opts, current, visited, out);
    current.pop_back();
    visited[l.dst] = 0;
  }
}

}  // namespace

std::vector<TimedPath> enumerate_timed_paths(const net::Graph& g,
                                             net::NodeId src, TimePoint t0,
                                             net::NodeId dst,
                                             const EnumerateOptions& opts) {
  // chronus-analyzer: allow(hot-alloc) the result, one path per entry
  std::vector<TimedPath> out;
  // chronus-analyzer: allow(hot-alloc) one visited byte per switch, per call
  std::vector<unsigned char> visited(g.node_count(), 0);
  // chronus-analyzer: allow(hot-alloc) the path being walked, per call
  TimedPath current{TimedNode{src, t0}};
  visited[src] = 1;
  dfs(g, dst, opts, current, visited, out);
  return out;
}

bool contains_path(const std::vector<TimedPath>& set, const TimedPath& path) {
  return std::find(set.begin(), set.end(), path) != set.end();
}

}  // namespace chronus::timenet
