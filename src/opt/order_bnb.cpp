#include "opt/order_bnb.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "opt/arena_search.hpp"
#include "util/arena.hpp"
#include "util/stopwatch.hpp"

namespace chronus::opt {

namespace {

/// Cycle check on the union graph (see header). Each switch contributes at
/// most two outgoing edges, so this is O(V). This map-based form is the
/// public round_is_loop_safe, which greedy_maximal and Dionysus call; the
/// exact search uses FlatLoopCheck below (same verdicts, flat
/// epoch-stamped arrays instead of per-call maps).
bool union_graph_acyclic(const net::UpdateInstance& inst,
                         const std::set<net::NodeId>& updated,
                         const std::set<net::NodeId>& round) {
  const auto nodes = inst.touched_nodes();
  std::map<net::NodeId, std::vector<net::NodeId>> adj;
  for (const net::NodeId v : nodes) {
    const auto on = inst.old_next(v);
    const auto nn = inst.new_next(v);
    auto& out = adj[v];
    if (updated.count(v)) {
      if (nn) out.push_back(*nn);
    } else if (round.count(v)) {
      if (on) out.push_back(*on);
      if (nn && (!on || *nn != *on)) out.push_back(*nn);
    } else {
      if (on) out.push_back(*on);
    }
  }
  // Iterative three-color DFS.
  std::map<net::NodeId, int> color;  // 0 white, 1 grey, 2 black
  for (const net::NodeId start : nodes) {
    if (color[start] != 0) continue;
    std::vector<std::pair<net::NodeId, std::size_t>> stack{{start, 0}};
    color[start] = 1;
    while (!stack.empty()) {
      auto& [v, i] = stack.back();
      const auto it = adj.find(v);
      if (it == adj.end() || i >= it->second.size()) {
        color[v] = 2;
        stack.pop_back();
        continue;
      }
      const net::NodeId w = it->second[i++];
      if (!adj.count(w)) continue;  // sink (destination): no out edges
      const int c = color[w];
      if (c == 1) return false;
      if (c == 0) {
        color[w] = 1;
        stack.emplace_back(w, 0);
      }
    }
  }
  return true;
}

/// The exact search's union-graph cycle check: next-hop functions and the
/// touched-node set are flattened once per search, and every safe_with()
/// call reuses epoch-stamped color/adjacency arrays — no per-call
/// allocation, no tree lookups. Verdict-identical to union_graph_acyclic
/// (both decide acyclicity of the same union graph; tests/opt_test.cpp
/// checks every round the search emits with round_is_loop_safe).
class FlatLoopCheck {
 public:
  FlatLoopCheck(util::Arena* arena, const net::UpdateInstance& inst)
      : nodes_(util::ArenaAllocator<net::NodeId>(arena)),
        old_nx_(util::ArenaAllocator<net::NodeId>(arena)),
        new_nx_(util::ArenaAllocator<net::NodeId>(arena)),
        stamp_(util::ArenaAllocator<std::uint64_t>(arena)),
        color_(util::ArenaAllocator<unsigned char>(arena)),
        out_(util::ArenaAllocator<net::NodeId>(arena)),
        out_n_(util::ArenaAllocator<unsigned char>(arena)),
        stack_(util::ArenaAllocator<Frame>(arena)) {
    const std::size_t n = inst.graph().node_count();
    const auto touched = inst.touched_nodes();
    nodes_.assign(touched.begin(), touched.end());
    old_nx_.assign(n, net::kInvalidNode);
    new_nx_.assign(n, net::kInvalidNode);
    for (const net::NodeId v : nodes_) {
      if (const auto on = inst.old_next(v)) old_nx_[v] = *on;
      if (const auto nn = inst.new_next(v)) new_nx_[v] = *nn;
    }
    stamp_.assign(n, 0);
    color_.assign(n, 0);
    out_.assign(2 * n, net::kInvalidNode);
    out_n_.assign(n, 0);
    stack_.reserve(nodes_.size());
  }

  /// Acyclicity with `round` membership decided by any predicate.
  template <typename Updated, typename RoundContains>
  bool safe_with(const Updated& updated, RoundContains in_round) {
    ++epoch_;
    for (const net::NodeId v : nodes_) {
      stamp_[v] = epoch_;
      color_[v] = 0;
      unsigned char cnt = 0;
      const net::NodeId on = old_nx_[v];
      const net::NodeId nn = new_nx_[v];
      if (updated.contains(v)) {
        if (nn != net::kInvalidNode) out_[2 * v + cnt++] = nn;
      } else if (in_round(v)) {
        if (on != net::kInvalidNode) out_[2 * v + cnt++] = on;
        if (nn != net::kInvalidNode && (on == net::kInvalidNode || nn != on)) {
          out_[2 * v + cnt++] = nn;
        }
      } else {
        if (on != net::kInvalidNode) out_[2 * v + cnt++] = on;
      }
      out_n_[v] = cnt;
    }
    for (const net::NodeId start : nodes_) {
      if (color_[start] != 0) continue;
      stack_.clear();
      stack_.push_back(Frame{start, 0});
      color_[start] = 1;
      while (!stack_.empty()) {
        Frame& f = stack_.back();
        if (f.i >= out_n_[f.v]) {
          color_[f.v] = 2;
          stack_.pop_back();
          continue;
        }
        const net::NodeId w = out_[2 * f.v + f.i++];
        if (stamp_[w] != epoch_) continue;  // sink: not a touched node
        const unsigned char c = color_[w];
        if (c == 1) return false;
        if (c == 0) {
          color_[w] = 1;
          stack_.push_back(Frame{w, 0});
        }
      }
    }
    return true;
  }

 private:
  struct Frame {
    net::NodeId v;
    unsigned char i;
  };

  util::ArenaVector<net::NodeId> nodes_;
  util::ArenaVector<net::NodeId> old_nx_;
  util::ArenaVector<net::NodeId> new_nx_;
  util::ArenaVector<std::uint64_t> stamp_;
  util::ArenaVector<unsigned char> color_;
  util::ArenaVector<net::NodeId> out_;
  util::ArenaVector<unsigned char> out_n_;
  util::ArenaVector<Frame> stack_;
  std::uint64_t epoch_ = 0;
};

/// A round under construction: sorted flat vector plus membership mask.
/// branch() inserts candidates in ascending order and erases in LIFO
/// order, so push_back/pop_back keep the vector sorted.
class RoundVec {
 public:
  RoundVec(util::Arena* arena, std::size_t node_count)
      : v_(util::ArenaAllocator<net::NodeId>(arena)),
        mask_(arena, node_count) {}

  void insert(net::NodeId v) {
    CHRONUS_EXPECTS(v_.empty() || v_.back() < v,
                    "RoundVec inserts must be ascending");
    v_.push_back(v);
    mask_.insert(v);
  }
  void erase(net::NodeId v) {
    CHRONUS_EXPECTS(!v_.empty() && v_.back() == v,
                    "RoundVec erases must be LIFO");
    mask_.erase(v);
    v_.pop_back();
  }
  void clear() {
    for (const net::NodeId v : v_) mask_.erase(v);
    v_.clear();
  }

  bool contains(net::NodeId v) const { return mask_.contains(v); }
  bool empty() const { return v_.empty(); }
  auto begin() const { return v_.begin(); }
  auto end() const { return v_.end(); }

 private:
  util::ArenaVector<net::NodeId> v_;
  arena_search::NodeMask mask_;
};

// Search state lives in the solve's arena (opt/arena_search.hpp).
using Pending = arena_search::SortedNodeVec;
using Updated = arena_search::NodeMask;
using CandVec = arena_search::CandPool::CandVec;

/// Per-depth rounds under construction; slots are arena_new'd for the
/// same reason as arena_search::CandPool's.
struct RoundPool {
  util::Arena* arena;
  std::size_t node_count;
  util::ArenaVector<RoundVec*> pool;

  RoundPool(util::Arena* a, std::size_t n)
      : arena(a), node_count(n), pool(util::ArenaAllocator<RoundVec*>(a)) {}
  RoundVec& at_depth(std::size_t d) {
    while (d >= pool.size()) {
      pool.push_back(
          arena_search::arena_new<RoundVec>(arena, arena, node_count));
    }
    pool[d]->clear();
    return *pool[d];
  }
};

/// Stack of completed rounds: per-depth slots are assigned in place so
/// a long search never grows the arena with dead round copies.
struct Rounds {
  util::Arena* arena;
  util::ArenaVector<util::ArenaVector<net::NodeId>*> pool;
  std::size_t n = 0;

  explicit Rounds(util::Arena* a)
      : arena(a),
        pool(util::ArenaAllocator<util::ArenaVector<net::NodeId>*>(a)) {}
  void push(const RoundVec& r) {
    if (n == pool.size()) {
      pool.push_back(arena_search::arena_new<util::ArenaVector<net::NodeId>>(
          arena, util::ArenaAllocator<net::NodeId>(arena)));
    }
    pool[n]->assign(r.begin(), r.end());
    ++n;
  }
  void pop() { --n; }
  std::size_t size() const { return n; }
  std::vector<std::vector<net::NodeId>> snapshot() const {
    std::vector<std::vector<net::NodeId>> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.emplace_back(pool[i]->begin(), pool[i]->end());
    }
    return out;
  }
};

/// Dominance memo: pending set -> fewest rounds used to reach it.
struct Memo {
  util::ArenaString key;  // reused scratch; contents rebuilt per probe
  std::map<util::ArenaString, std::size_t, std::less<util::ArenaString>,
           util::ArenaAllocator<
               std::pair<const util::ArenaString, std::size_t>>>
      memo;

  explicit Memo(util::Arena* a)
      : key(util::ArenaAllocator<char>(a)),
        memo(std::less<util::ArenaString>(),
             util::ArenaAllocator<
                 std::pair<const util::ArenaString, std::size_t>>(a)) {}

  /// True if the pending set was already reached within `used` rounds;
  /// records the visit otherwise.
  bool probe(const Pending& pending, std::size_t used) {
    key.clear();
    for (const net::NodeId v : pending) arena_search::append_u32(key, v);
    const auto it = memo.find(key);
    if (it != memo.end()) {
      if (it->second <= used) return true;
      it->second = used;
      return false;
    }
    memo.emplace(key, used);
    return false;
  }
};

struct Search {
  util::Deadline deadline{0};

  std::size_t incumbent = std::numeric_limits<std::size_t>::max();
  std::vector<std::vector<net::NodeId>> best;
  bool found = false;
  bool timed_out = false;
  std::uint64_t nodes = 0;
  std::uint64_t prunes = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t incumbent_updates = 0;  // dfs-internal only (see mutp_bnb)
  Memo memo;
  FlatLoopCheck loops;
  arena_search::CandPool cands;
  RoundPool round_pool;
  Rounds current;

  Search(util::Arena* arena, const net::UpdateInstance& inst)
      : memo(arena),
        loops(arena, inst),
        cands(arena),
        round_pool(arena, inst.graph().node_count()),
        current(arena) {}

  void dfs(std::size_t depth, Pending& pending, Updated& updated);
  void branch(std::size_t depth, Pending& pending, Updated& updated,
              const CandVec& cand, std::size_t idx, RoundVec& round);
};

void Search::dfs(std::size_t depth, Pending& pending, Updated& updated) {
  if (timed_out || deadline.expired()) {
    timed_out = true;
    return;
  }
  ++nodes;
  if (pending.empty()) {
    if (current.size() < incumbent) {
      incumbent = current.size();
      best = current.snapshot();
      found = true;
      ++incumbent_updates;
    }
    return;
  }
  if (current.size() + 1 >= incumbent) {
    ++prunes;
    return;
  }

  if (memo.probe(pending, current.size())) {
    ++memo_hits;
    return;
  }

  CandVec& cand = cands.at_depth(depth);
  for (const net::NodeId v : pending) {
    if (loops.safe_with(updated, [v](net::NodeId w) { return w == v; })) {
      cand.push_back(v);
    }
  }
  if (cand.empty()) return;  // stuck: no single switch is safe

  RoundVec& round = round_pool.at_depth(depth);
  branch(depth, pending, updated, cand, 0, round);
}

void Search::branch(std::size_t depth, Pending& pending, Updated& updated,
                    const CandVec& cand, std::size_t idx, RoundVec& round) {
  if (timed_out || deadline.expired()) {
    timed_out = true;
    return;
  }
  if (idx == cand.size()) {
    if (round.empty()) return;
    for (const net::NodeId v : round) {
      pending.erase(v);
      updated.insert(v);
    }
    current.push(round);
    dfs(depth + 1, pending, updated);
    current.pop();
    for (const net::NodeId v : round) {
      updated.erase(v);
      pending.insert(v);
    }
    return;
  }
  const net::NodeId v = cand[idx];
  round.insert(v);
  if (loops.safe_with(updated,
                      [&round](net::NodeId w) { return round.contains(w); })) {
    branch(depth, pending, updated, cand, idx + 1, round);
  }
  round.erase(v);
  branch(depth, pending, updated, cand, idx + 1, round);
}

std::vector<std::vector<net::NodeId>> greedy_maximal(
    const net::UpdateInstance& inst, std::set<net::NodeId> pending,
    std::set<net::NodeId> updated, const util::Deadline& deadline) {
  std::vector<std::vector<net::NodeId>> rounds;
  while (!pending.empty()) {
    std::set<net::NodeId> round;
    for (const net::NodeId v : pending) {
      if (deadline.expired()) return {};
      round.insert(v);
      if (!round_is_loop_safe(inst, updated, round)) round.erase(v);
    }
    if (round.empty()) return {};  // stuck
    for (const net::NodeId v : round) {
      pending.erase(v);
      updated.insert(v);
    }
    rounds.emplace_back(round.begin(), round.end());
  }
  return rounds;
}

}  // namespace

bool round_is_loop_safe(const net::UpdateInstance& inst,
                        const std::set<net::NodeId>& updated,
                        const std::set<net::NodeId>& round) {
  return union_graph_acyclic(inst, updated, round);
}

OrderResult solve_order_replacement(const net::UpdateInstance& inst,
                                    const OrderOptions& opts) {
  CHRONUS_SPAN("order.solve");
  OrderResult res;
  const auto to_update = inst.switches_to_update();
  if (to_update.empty()) {
    res.feasible = true;
    res.proved_optimal = true;
    res.message = "nothing to update";
    return res;
  }
  std::set<net::NodeId> pending(to_update.begin(), to_update.end());

  // Switches with no old rule carry no traffic; installing their rules
  // first is always safe and avoids transient blackholes once upstream
  // switches flip. They form a preliminary round outside the optimization.
  std::vector<net::NodeId> fresh;
  for (auto it = pending.begin(); it != pending.end();) {
    if (!inst.old_next(*it)) {
      fresh.push_back(*it);
      it = pending.erase(it);
    } else {
      ++it;
    }
  }
  if (pending.empty()) {
    res.feasible = true;
    res.proved_optimal = true;
    res.rounds.push_back(fresh);
    return res;
  }
  const std::set<net::NodeId> pre_installed(fresh.begin(), fresh.end());

  const util::Deadline deadline(opts.timeout_sec);
  auto greedy = greedy_maximal(inst, pending, pre_installed, deadline);
  const auto with_fresh_round = [&](std::vector<std::vector<net::NodeId>> rounds) {
    if (!fresh.empty()) rounds.insert(rounds.begin(), fresh);
    return rounds;
  };

  if (pending.size() > opts.exact_limit) {
    res.feasible = !greedy.empty();
    res.timed_out = deadline.expired();
    res.rounds = with_fresh_round(greedy);
    res.message = res.timed_out ? "deadline hit during greedy-maximal"
                                : "greedy-maximal (instance above exact_limit)";
    return res;
  }

  util::Arena arena;
  util::ArenaScope claim(arena);
  Search s(&arena, inst);
  s.deadline = deadline;
  if (!greedy.empty()) {
    s.found = true;
    s.incumbent = greedy.size();
    s.best = std::move(greedy);
  }
  Pending open(&arena);
  open.assign_sorted(pending.begin(), pending.end());
  Updated updated(&arena, inst.graph().node_count());
  for (const net::NodeId v : pre_installed) updated.insert(v);
  s.dfs(0, open, updated);

  const util::ArenaStats& st = arena.stats();
  obs::add("arena.order.bytes", st.bytes_requested);
  obs::add("arena.order.allocs", st.allocs);
  obs::add("arena.order.chunks", st.chunks);
  obs::add("arena.order.high_water", st.high_water);
  obs::add("order.calls");
  obs::add("order.nodes_visited", s.nodes);
  obs::add("order.prunes", s.prunes);
  obs::add("order.memo_hits", s.memo_hits);
  obs::add("order.incumbent_updates", s.incumbent_updates);
  if (s.timed_out) obs::add("order.timeouts");

  res.timed_out = s.timed_out;
  res.nodes_explored = s.nodes;
  res.feasible = s.found;
  res.rounds = with_fresh_round(std::move(s.best));
  res.proved_optimal = s.found && !s.timed_out;
  if (s.timed_out) res.message = "deadline hit; incumbent returned";
  if (!s.found) res.message = "no loop-free round sequence found";
  return res;
}

}  // namespace chronus::opt
