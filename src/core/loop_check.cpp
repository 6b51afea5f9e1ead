#include "core/loop_check.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"

namespace chronus::core {

Algorithm4Context::Algorithm4Context(const net::UpdateInstance& inst)
    : invocations_(obs::counter_ptr("loopcheck.invocations")),
      src_(inst.source()),
      dst_(inst.destination()) {
  const net::Graph& g = inst.graph();
  switches_.resize(g.node_count());
  for (const auto& [v, next] : inst.old_rules()) {
    if (g.has_link(v, next)) switches_[v].old_hop = next;
  }
  for (const auto& [v, next] : inst.new_rules()) {
    switches_[v].new_next = next;
    if (g.has_link(v, next)) switches_[v].new_hop = next;
  }
  const net::Path& p_init = inst.p_init();
  init_prefix_delay_.assign(p_init.size(), 0);
  for (std::size_t i = 0; i < p_init.size(); ++i) {
    switches_[p_init[i]].init_pos = static_cast<std::uint32_t>(i);
    if (i + 1 < p_init.size()) {
      init_prefix_delay_[i + 1] =
          init_prefix_delay_[i] + g.delay(p_init[i], p_init[i + 1]);
    }
  }
  init_time_.assign(p_init.size(), kNever);
  tau_max_prefix_.assign(p_init.size(),
                         std::numeric_limits<timenet::TimePoint>::max());
  walk_current_path();
}

void Algorithm4Context::note_update(net::NodeId v, timenet::TimePoint t) {
  noted_.emplace_back(v, t);
}

void Algorithm4Context::begin_step() {
  if (noted_.empty()) return;
  std::size_t first_changed = tau_max_prefix_.size();
  for (const auto& [v, t] : noted_) {
    Switch& s = switches_[v];
    s.updated = true;
    if (s.init_pos == kNoPos) continue;
    init_time_[s.init_pos] = t;
    first_changed = std::min<std::size_t>(first_changed, s.init_pos + 1);
  }
  noted_.clear();
  for (std::size_t i = first_changed; i < tau_max_prefix_.size(); ++i) {
    timenet::TimePoint bound = tau_max_prefix_[i - 1];
    if (init_time_[i - 1] != kNever) {
      bound = std::min(bound,
                       init_time_[i - 1] - init_prefix_delay_[i - 1] - 1);
    }
    tau_max_prefix_[i] = bound;
  }
  walk_current_path();
}

void Algorithm4Context::walk_current_path() {
  for (const net::NodeId v : cur_path_) switches_[v].cur_pos = kNoPos;
  cur_path_.clear();
  net::NodeId at = src_;
  while (switches_[at].cur_pos == kNoPos) {
    Switch& s = switches_[at];
    s.cur_pos = static_cast<std::uint32_t>(cur_path_.size());
    cur_path_.push_back(at);
    if (at == dst_) return;
    at = s.updated ? s.new_hop : s.old_hop;
    if (at == net::kInvalidNode) break;  // blackhole
  }
  // The configuration loops or blackholes: there is no steady path.
  for (const net::NodeId v : cur_path_) switches_[v].cur_pos = kNoPos;
  cur_path_.clear();
}

bool Algorithm4Context::loops(net::NodeId v, timenet::TimePoint t) const {
  // Hot path: the slot handle was resolved once in the constructor, so an
  // enabled check costs one relaxed increment and a disabled one a branch.
  if (invocations_ != nullptr) invocations_->add(1);
  const Switch& s = switches_[v];
  if (s.new_next == net::kInvalidNode) return false;
  const Switch& next = switches_[s.new_next];

  // (a) Continuously arriving flow: if v carries flow in the current
  // configuration and its new next hop lies upstream on that path, every
  // redirected class revisits the next hop.
  if (s.cur_pos != kNoPos && next.cur_pos != kNoPos &&
      next.cur_pos < s.cur_pos) {
    return true;
  }

  // (b) In-flight old-path classes: a class injected at tau reaches the
  // i-th switch of p_init at tau + D(i) provided no upstream switch had
  // been updated by the time the class passed it. If such a class can
  // still reach v at or after t, and v's new next hop is one of the
  // switches the class already visited, updating v at t loops it.
  if (s.init_pos == kNoPos) return false;
  if (next.init_pos == kNoPos || next.init_pos >= s.init_pos) return false;

  const std::size_t i = s.init_pos;
  const timenet::TimePoint tau_low = t - init_prefix_delay_[i];
  return tau_low <= tau_max_prefix_[i];
}

}  // namespace chronus::core
