#include "core/loop_check.hpp"

#include <algorithm>
#include <limits>

#include "core/config.hpp"
#include "obs/metrics.hpp"
#include "timenet/trajectory.hpp"

namespace chronus::core {

bool exact_loop_check(const net::UpdateInstance& inst,
                      const timenet::UpdateSchedule& scheduled, net::NodeId v,
                      timenet::TimePoint t) {
  obs::add("loopcheck.exact_invocations");
  const net::Graph& g = inst.graph();
  timenet::RuleTable rules(g, inst);
  rules.set_schedule(scheduled);
  rules.set_update(v, t);  // the tentative update
  timenet::Tracer tracer(g.node_count());

  const std::int64_t span =
      static_cast<std::int64_t>(g.node_count() + 2) * g.max_delay();
  // Classes injected before t - span pass every switch before t and are
  // unaffected by this update; classes injected at >= t all see the same
  // (final, static) configuration, so tracing one representative suffices.
  for (timenet::TimePoint tau = t - span; tau <= t + 1; ++tau) {
    if (tracer.run(rules, tau).looped()) return true;
  }
  return false;
}

bool algorithm4_loop_check(const net::UpdateInstance& inst,
                           const timenet::UpdateSchedule& scheduled,
                           const std::set<net::NodeId>& updated, net::NodeId v,
                           timenet::TimePoint t) {
  Algorithm4Context ctx(inst);
  ctx.begin_step(updated, scheduled);
  return ctx.loops(v, t);
}

Algorithm4Context::Algorithm4Context(const net::UpdateInstance& inst)
    : inst_(&inst), invocations_(obs::counter_ptr("loopcheck.invocations")) {
  const net::Path& p_init = inst.p_init();
  const net::Graph& g = inst.graph();
  init_prefix_delay_.resize(p_init.size(), 0);
  init_pos_.reserve(p_init.size());
  for (std::size_t i = 0; i < p_init.size(); ++i) {
    init_pos_[p_init[i]] = i;
    if (i + 1 < p_init.size()) {
      init_prefix_delay_[i + 1] =
          init_prefix_delay_[i] + g.delay(p_init[i], p_init[i + 1]);
    }
  }
}

void Algorithm4Context::begin_step(const std::set<net::NodeId>& updated,
                                   const timenet::UpdateSchedule& scheduled) {
  cur_pos_.clear();
  const auto path = current_forwarding_path(*inst_, updated);
  if (path) {
    for (std::size_t i = 0; i < path->size(); ++i) cur_pos_[(*path)[i]] = i;
  }
  const net::Path& p_init = inst_->p_init();
  tau_max_prefix_.assign(p_init.size(),
                         std::numeric_limits<timenet::TimePoint>::max());
  for (std::size_t i = 1; i < p_init.size(); ++i) {
    timenet::TimePoint bound = tau_max_prefix_[i - 1];
    const auto upd = scheduled.at(p_init[i - 1]);
    if (upd) {
      bound = std::min(bound, *upd - init_prefix_delay_[i - 1] - 1);
    }
    tau_max_prefix_[i] = bound;
  }
}

bool Algorithm4Context::loops(net::NodeId v, timenet::TimePoint t) const {
  // Hot path: the slot handle was resolved once in the constructor, so an
  // enabled check costs one relaxed increment and a disabled one a branch.
  if (invocations_ != nullptr) invocations_->add(1);
  const auto new_next = inst_->new_next(v);
  if (!new_next) return false;

  // (a) Continuously arriving flow: if v carries flow in the current
  // configuration and its new next hop lies upstream on that path, every
  // redirected class revisits the next hop.
  const auto cv = cur_pos_.find(v);
  const auto cn = cur_pos_.find(*new_next);
  if (cv != cur_pos_.end() && cn != cur_pos_.end() &&
      cn->second < cv->second) {
    return true;
  }

  // (b) In-flight old-path classes: a class injected at tau reaches the
  // i-th switch of p_init at tau + D(i) provided no upstream switch had
  // been updated by the time the class passed it. If such a class can
  // still reach v at or after t, and v's new next hop is one of the
  // switches the class already visited, updating v at t loops it.
  const auto iv = init_pos_.find(v);
  if (iv == init_pos_.end()) return false;
  const auto jn = init_pos_.find(*new_next);
  if (jn == init_pos_.end() || jn->second >= iv->second) return false;

  const std::size_t i = iv->second;
  const timenet::TimePoint tau_low = t - init_prefix_delay_[i];
  return tau_low <= tau_max_prefix_[i];
}

bool structural_loop_check(const net::UpdateInstance& inst,
                           const std::set<net::NodeId>& updated,
                           net::NodeId v) {
  const auto new_next = inst.new_next(v);
  if (!new_next) return false;
  const auto path = current_forwarding_path(inst, updated);
  if (!path) return true;  // configuration already loops; be conservative
  const auto pos_v = path->index_of(v);
  if (pos_v == net::Path::npos) {
    // No flow is routed through v in the current configuration, but
    // in-flight classes may still traverse the old path through v. Walk the
    // old path upstream of v instead.
    const auto old_pos = inst.p_init().index_of(v);
    if (old_pos == net::Path::npos) return false;
    for (std::size_t i = 0; i < old_pos; ++i) {
      if (inst.p_init()[i] == *new_next) return true;
    }
    return false;
  }
  // v carries flow: loop iff the new next hop lies upstream on the path the
  // flow took to reach v.
  const auto pos_next = path->index_of(*new_next);
  return pos_next != net::Path::npos && pos_next < pos_v;
}

}  // namespace chronus::core
