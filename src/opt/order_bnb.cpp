#include "opt/order_bnb.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "opt/search_state.hpp"
#include "util/stopwatch.hpp"

namespace chronus::opt {

RoundLoopCheck::RoundLoopCheck(const net::UpdateInstance& inst) {
  const std::size_t n = inst.graph().node_count();
  const auto touched = inst.touched_nodes();
  nodes_.assign(touched.begin(), touched.end());
  touched_.assign(n, 0);
  old_nx_.assign(n, net::kInvalidNode);
  new_nx_.assign(n, net::kInvalidNode);
  for (const net::NodeId v : nodes_) {
    touched_[v] = 1;
    if (const auto on = inst.old_next(v)) old_nx_[v] = *on;
    if (const auto nn = inst.new_next(v)) new_nx_[v] = *nn;
  }
  out_.assign(2 * n, net::kInvalidNode);
  out_n_.assign(n, 0);
  color_.assign(n, 0);
  stack_.reserve(nodes_.size());
}

/// Iterative three-colour DFS over the out-edges safe() filled in. Each
/// switch has at most two out-edges, so this is O(V).
bool RoundLoopCheck::acyclic() {
  for (const net::NodeId v : nodes_) color_[v] = 0;
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
      if (touched_[w] == 0) continue;  // sink (destination): no out edges
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

bool round_is_loop_safe(const net::UpdateInstance& inst,
                        const std::set<net::NodeId>& updated,
                        const std::set<net::NodeId>& round) {
  return RoundLoopCheck(inst).safe(
      updated, [&round](net::NodeId v) { return round.contains(v); });
}

namespace {

/// A round under construction: sorted flat vector plus membership mask.
/// branch() inserts candidates in ascending order and erases in LIFO
/// order, so push_back/pop_back keep the vector sorted.
class RoundVec {
 public:
  explicit RoundVec(std::size_t node_count) : mask_(node_count) {}

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
  // chronus-analyzer: allow(hot-alloc) one round per search depth, reused
  std::vector<net::NodeId> v_;
  search_state::NodeMask mask_;
};

// Search state (opt/search_state.hpp).
using Pending = search_state::SortedNodeVec;
using Updated = search_state::NodeMask;
// chronus-analyzer: allow(hot-alloc) one list per search depth, reused
using CandVec = std::vector<net::NodeId>;
// chronus-analyzer: allow(hot-alloc) the rounds an answer returns
using RoundList = std::vector<std::vector<net::NodeId>>;

/// Stack of completed rounds: per-depth slots are assigned in place, so a
/// long search reuses their buffers instead of copying a round per node.
struct Rounds {
  RoundList slots;
  std::size_t n = 0;

  void push(const RoundVec& r) {
    if (n == slots.size()) slots.emplace_back();
    slots[n].assign(r.begin(), r.end());
    ++n;
  }
  void pop() { --n; }
  std::size_t size() const { return n; }
  RoundList snapshot() const {
    return RoundList(slots.begin(),
                     slots.begin() + static_cast<std::ptrdiff_t>(n));
  }
};

/// Dominance memo: pending set -> fewest rounds used to reach it.
struct Memo {
  std::string key;  // reused scratch; contents rebuilt per probe
  // chronus-analyzer: allow(hot-alloc) one memo per solve, an entry per state
  std::map<std::string, std::size_t> memo;

  /// True if the pending set was already reached within `used` rounds;
  /// records the visit otherwise.
  bool probe(const Pending& pending, std::size_t used) {
    key.clear();
    for (const net::NodeId v : pending) search_state::append_u32(key, v);
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
  RoundList best;
  bool found = false;
  bool timed_out = false;
  std::uint64_t nodes = 0;
  std::uint64_t prunes = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t incumbent_updates = 0;  // dfs-internal only (see mutp_bnb)
  RoundLoopCheck* loops = nullptr;
  std::size_t node_count = 0;
  Memo memo;
  search_state::DepthSlots<CandVec> cands;
  search_state::DepthSlots<RoundVec> rounds_at_depth;
  Rounds current;

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
    if (loops->safe(updated, [v](net::NodeId w) { return w == v; })) {
      cand.push_back(v);
    }
  }
  if (cand.empty()) return;  // stuck: no single switch is safe

  RoundVec& round = rounds_at_depth.at_depth(depth, node_count);
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
  if (loops->safe(updated,
                  [&round](net::NodeId w) { return round.contains(w); })) {
    branch(depth, pending, updated, cand, idx + 1, round);
  }
  round.erase(v);
  branch(depth, pending, updated, cand, idx + 1, round);
}

RoundList greedy_maximal(RoundLoopCheck& loops, std::set<net::NodeId> pending,
                         std::set<net::NodeId> updated,
                         const util::Deadline& deadline) {
  RoundList rounds;
  while (!pending.empty()) {
    std::set<net::NodeId> round;
    const auto in_round = [&round](net::NodeId w) { return round.contains(w); };
    for (const net::NodeId v : pending) {
      if (deadline.expired()) return {};
      round.insert(v);
      if (!loops.safe(updated, in_round)) round.erase(v);
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
  RoundLoopCheck loops(inst);
  RoundList greedy = greedy_maximal(loops, pending, pre_installed, deadline);
  const auto with_fresh_round = [&](RoundList rounds) {
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

  Search s;
  s.deadline = deadline;
  s.loops = &loops;
  s.node_count = inst.graph().node_count();
  if (!greedy.empty()) {
    s.found = true;
    s.incumbent = greedy.size();
    s.best = std::move(greedy);
  }
  Pending open;
  open.assign_sorted(pending.begin(), pending.end());
  Updated updated(s.node_count);
  for (const net::NodeId v : pre_installed) updated.insert(v);
  s.dfs(0, open, updated);

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
