#include "timenet/path_enum.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/arena.hpp"

namespace chronus::timenet {

namespace {

// Depth-first walk over the base graph's out-links. The visited filter is a
// flat byte mask and the growing path lives in bump-allocated scratch, so
// a step costs two array writes.
void dfs(const net::Graph& g, net::NodeId dst, const EnumerateOptions& opts,
         util::ArenaVector<TimedNode>& current, unsigned char* visited,
         std::vector<TimedPath>& out) {
  if (out.size() >= opts.max_paths) return;
  const TimedNode at = current.back();
  if (at.node == dst) {
    out.emplace_back(current.begin(), current.end());
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
  // The result is the public heap vocabulary; only the enumeration
  // scratch lives in the arena.
  // chronus-analyzer: allow(hot-alloc)
  std::vector<TimedPath> out;
  util::Arena arena;
  util::ArenaScope claim(arena);
  auto* visited = arena.allocate_array<unsigned char>(g.node_count());
  for (std::size_t v = 0; v < g.node_count(); ++v) visited[v] = 0;
  util::ArenaVector<TimedNode> current{
      util::ArenaAllocator<TimedNode>(&arena)};
  current.push_back(TimedNode{src, t0});
  visited[src] = 1;
  dfs(g, dst, opts, current, visited, out);

  const util::ArenaStats& st = arena.stats();
  obs::add("arena.pathenum.bytes", st.bytes_requested);
  obs::add("arena.pathenum.allocs", st.allocs);
  obs::add("arena.pathenum.chunks", st.chunks);
  obs::add("arena.pathenum.high_water", st.high_water);
  return out;
}

bool contains_path(const std::vector<TimedPath>& set, const TimedPath& path) {
  return std::find(set.begin(), set.end(), path) != set.end();
}

}  // namespace chronus::timenet
