#include "sim/resilient_executor.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "timenet/trajectory.hpp"

namespace chronus::sim {

namespace {

/// Flushes a run's fallback-ladder counters (executor.* in DESIGN.md §11)
/// when the public run method returns, whichever exit path it takes. The
/// report outlives the tally (both are locals in the run method, report
/// declared first), so the destructor reads the final values.
struct RunTally {
  const UpdateRunReport* rep;

  ~RunTally() {
    if (obs::registry() == nullptr) return;
    obs::add("executor.runs");
    obs::add("executor.retries", static_cast<std::uint64_t>(rep->retries));
    obs::add("executor.recalls", static_cast<std::uint64_t>(rep->recalls));
    obs::add("executor.replans", static_cast<std::uint64_t>(rep->replans));
    obs::add("executor.barrier_rounds",
             static_cast<std::uint64_t>(rep->barrier_rounds));
    obs::add("executor.late_activations",
             static_cast<std::uint64_t>(rep->late_activations));
    if (rep->completed) obs::add("executor.completed");
    if (rep->rolled_back) obs::add("executor.rolled_back");
    switch (rep->fallback) {
      case UpdateRunReport::Fallback::kReplan:
        obs::add("executor.fallback_replan");
        break;
      case UpdateRunReport::Fallback::kTwoPhase:
        obs::add("executor.fallback_two_phase");
        break;
      case UpdateRunReport::Fallback::kRollback:
        obs::add("executor.fallback_rollback");
        break;
      case UpdateRunReport::Fallback::kNone:
        break;
    }
  }
};

/// The network state the controller believes in after a partial update:
/// the path new injections actually follow (updated switches forward with
/// their new rule, the rest with the old one), paired with the still-wanted
/// final path. Returns nullopt if the partial state loops or blackholes —
/// then no re-plan is possible and the ladder falls through.
std::optional<net::UpdateInstance> residual_instance(
    const net::UpdateInstance& inst, const std::set<net::NodeId>& updated) {
  std::vector<net::NodeId> cur;
  std::set<net::NodeId> seen;
  net::NodeId at = inst.source();
  const std::size_t limit = inst.graph().node_count() + 1;
  for (;;) {
    if (!seen.insert(at).second || cur.size() > limit) return std::nullopt;
    cur.push_back(at);
    if (at == inst.destination()) break;
    const auto next =
        updated.count(at) ? inst.new_next(at) : inst.old_next(at);
    if (!next) return std::nullopt;
    at = *next;
  }
  try {
    net::UpdateInstance r = net::UpdateInstance::from_paths(
        inst.graph(), net::Path(cur), inst.p_fin(), inst.demand());
    // Carry over redirect rules for switches that still await their update
    // (paper-style redirects live outside p_fin).
    for (const net::NodeId v : inst.switches_to_update()) {
      if (updated.count(v)) continue;
      if (const auto nn = inst.new_next(v)) r.set_new_next(v, *nn);
    }
    return r;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

FlowMod add_mod(const FlowEntry& entry) {
  FlowMod mod;
  mod.type = FlowModType::kAdd;
  mod.entry = entry;
  return mod;
}

}  // namespace

ResilientExecutor::ResilientExecutor(Controller& ctrl, RetryPolicy policy,
                                     std::uint64_t jitter_seed)
    : ctrl_(&ctrl), policy_(policy), jitter_(jitter_seed) {}

FaultStats ResilientExecutor::fault_snapshot() const {
  const FaultInjector* inj = ctrl_->fault_injector();
  return inj != nullptr ? inj->stats() : FaultStats{};
}

void ResilientExecutor::note(UpdateRunReport& rep, std::string msg) const {
  rep.events.push_back(std::move(msg));
}

SimTime ResilientExecutor::backoff(UpdateRunReport& rep, int attempt) {
  double b = static_cast<double>(policy_.base_backoff);
  for (int i = 0; i < attempt; ++i) b *= policy_.backoff_multiplier;
  b = std::min(b, static_cast<double>(policy_.max_backoff));
  SimTime wait = std::max<SimTime>(1, static_cast<SimTime>(b));
  if (policy_.jitter > 0) {
    wait += static_cast<SimTime>(jitter_.uniform(0.0, policy_.jitter * b));
  }
  ctrl_->advance_clock(ctrl_->clock() + wait);
  rep.backoff_waits.push_back(wait);
  return wait;
}

SimTime ResilientExecutor::drain_time(const net::UpdateInstance& inst,
                                      SimTime step_unit) const {
  if (policy_.drain_margin > 0) return policy_.drain_margin;
  return timenet::trajectory_bound(inst.graph()) *
         std::max<SimTime>(1, step_unit);
}

FlowEntry ResilientExecutor::new_rule_entry(const net::UpdateInstance& inst,
                                            const SimFlowSpec& spec,
                                            net::NodeId v) const {
  const auto next = inst.new_next(v);
  return make_forwarding_entry(
      spec, ctrl_->network().port_towards(static_cast<SwitchId>(v),
                                          static_cast<SwitchId>(*next)));
}

bool ResilientExecutor::rule_active(SwitchId sw, const FlowEntry& entry) const {
  const auto action = ctrl_->active_action(sw, entry.match, entry.priority);
  return action.has_value() && *action == entry.action;
}

bool ResilientExecutor::ensure_entry(UpdateRunReport& rep, SwitchId sw,
                                     const FlowEntry& entry) {
  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) {
      backoff(rep, attempt - 1);
      ++rep.retries;
    }
    ctrl_->issue_flow_mod(sw, add_mod(entry));
    ctrl_->advance_clock(ctrl_->barrier(sw));
    ++rep.barrier_rounds;
    if (rule_active(sw, entry)) return true;
  }
  return false;
}

bool ResilientExecutor::ensure_absent(UpdateRunReport& rep, SwitchId sw,
                                      const Match& match, int priority) {
  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (!ctrl_->active_action(sw, match, priority).has_value()) return true;
    if (attempt > 0) {
      backoff(rep, attempt - 1);
      ++rep.retries;
    }
    FlowMod mod;
    mod.type = FlowModType::kDeleteStrict;
    mod.entry.priority = priority;
    mod.entry.match = match;
    ctrl_->issue_flow_mod(sw, mod);
    ctrl_->advance_clock(ctrl_->barrier(sw));
    ++rep.barrier_rounds;
  }
  return !ctrl_->active_action(sw, match, priority).has_value();
}

ResilientExecutor::TimedOutcome ResilientExecutor::execute_timed_once(
    const net::UpdateInstance& inst, const SimFlowSpec& spec,
    const timenet::UpdateSchedule& schedule, SimTime t0, SimTime step_unit,
    UpdateRunReport& rep) {
  TimedOutcome out;
  std::vector<PlannedMod> planned;
  SimTime finish = ctrl_->clock();

  // Phase A — dispatch every Time4 bundle ahead of t0 (the seed dispatch
  // order, so a fault-free run draws identically).
  for (const auto& [step, switches] : schedule.by_time()) {
    const SimTime exec_at = t0 + step.count() * step_unit;
    for (const net::NodeId v : switches) {
      PlannedMod p;
      p.v = v;
      p.step = step;
      p.entry = new_rule_entry(inst, spec, v);
      p.id = ctrl_->issue_timed_flow_mod(static_cast<SwitchId>(v),
                                         add_mod(p.entry), exec_at);
      const ModRecord& rec = ctrl_->record(p.id);
      if (rec.applied != kNever) finish = std::max(finish, rec.applied);
      planned.push_back(std::move(p));
    }
  }

  // Phase B — bundle-receipt confirmation. A bundle whose record shows a
  // fault kept it from being at its switch ahead of the execution instant
  // is recalled (bundle discard) and re-sent. Only fault-flagged records
  // are touched: a fault-free run never intervenes here.
  for (int round = 0;; ++round) {
    std::vector<PlannedMod*> broken;
    for (PlannedMod& p : planned) {
      const ModRecord& rec = ctrl_->record(p.id);
      const SimTime exec_at = t0 + p.step.count() * step_unit;
      const bool undelivered = rec.dropped || rec.cancelled;
      const bool late = rec.faulted() && !rec.rejected &&
                        rec.arrival != kNever && rec.arrival > exec_at;
      if (undelivered || late) broken.push_back(&p);
    }
    if (broken.empty()) break;
    if (round + 1 >= policy_.max_attempts) {
      std::ostringstream os;
      os << "bundle confirmation exhausted for " << broken.size()
         << " switch(es) after " << policy_.max_attempts
         << " sends; recalling the schedule";
      note(rep, os.str());
      for (PlannedMod& p : planned) {
        const ModRecord& rec = ctrl_->record(p.id);
        if (rec.applied != kNever && !rec.cancelled && !rec.rejected &&
            ctrl_->cancel_mod(p.id)) {
          ++rep.recalls;
        }
      }
      // Whatever could not be recalled fires regardless: wait it out and
      // take stock with a barrier sweep.
      SimTime horizon = ctrl_->clock();
      std::set<SwitchId> touched;
      for (const PlannedMod& p : planned) {
        const ModRecord& rec = ctrl_->record(p.id);
        if (rec.applied != kNever && !rec.cancelled) {
          horizon = std::max(horizon, rec.applied);
        }
        touched.insert(static_cast<SwitchId>(p.v));
      }
      ctrl_->advance_clock(horizon);
      for (const SwitchId sw : touched) {
        ctrl_->advance_clock(ctrl_->barrier(sw));
        ++rep.barrier_rounds;
      }
      for (const PlannedMod& p : planned) {
        if (rule_active(static_cast<SwitchId>(p.v), p.entry)) {
          out.updated.insert(p.v);
        }
      }
      out.finish = ctrl_->clock();
      return out;
    }
    for (PlannedMod* p : broken) {
      const ModRecord& rec = ctrl_->record(p->id);
      if (rec.applied != kNever && !rec.cancelled && !rec.rejected &&
          ctrl_->cancel_mod(p->id)) {
        ++rep.recalls;
      }
      ++rep.retries;
      const SimTime exec_at = t0 + p->step.count() * step_unit;
      p->id = ctrl_->issue_timed_flow_mod(static_cast<SwitchId>(p->v),
                                          add_mod(p->entry), exec_at);
      const ModRecord& fresh = ctrl_->record(p->id);
      if (fresh.applied != kNever) finish = std::max(finish, fresh.applied);
    }
  }

  // Phase C — barrier confirmation per step (Algorithm 5 lines 6-9), plus
  // a ledger check against the step deadline: missing or rejected rules
  // are retried with backoff; exhaustion pauses the schedule at the last
  // confirmed consistent step and hands the partial state to the ladder.
  std::map<timenet::TimePoint, std::vector<PlannedMod*>> steps;
  for (PlannedMod& p : planned) steps[p.step].push_back(&p);
  for (auto& [step, mods] : steps) {
    const SimTime deadline = t0 + (step.count() + 1) * step_unit;
    ctrl_->advance_clock(deadline);
    for (PlannedMod* p : mods) {
      finish = std::max(finish, ctrl_->barrier(static_cast<SwitchId>(p->v)));
      ++rep.barrier_rounds;
    }
    for (PlannedMod* p : mods) {
      const SwitchId sw = static_cast<SwitchId>(p->v);
      int attempts = 1;  // the timed send
      while (!rule_active(sw, p->entry)) {
        if (attempts >= policy_.max_attempts) {
          std::ostringstream os;
          os << "step " << step << ": switch " << p->v << " still missing its"
             << " rule after " << attempts << " sends — pausing schedule";
          note(rep, os.str());
          for (const PlannedMod& q : planned) {
            if (rule_active(static_cast<SwitchId>(q.v), q.entry)) {
              out.updated.insert(q.v);
            }
          }
          out.finish = ctrl_->clock();
          return out;
        }
        backoff(rep, attempts - 1);
        ++rep.retries;
        ++attempts;
        ctrl_->issue_flow_mod(sw, add_mod(p->entry));
        const SimTime done = ctrl_->barrier(sw);
        ++rep.barrier_rounds;
        ctrl_->advance_clock(done);
        finish = std::max(finish, done);
      }
      const SimTime act = ctrl_->activation_time(sw, p->entry);
      if (act != kNever && act > deadline) {
        ++rep.late_activations;
        rep.max_lateness = std::max(rep.max_lateness, act - deadline);
      }
      out.updated.insert(p->v);
    }
    ++rep.steps_confirmed;
  }
  ctrl_->advance_clock(finish);
  out.complete = true;
  out.finish = finish;
  return out;
}

void ResilientExecutor::finalize_applied(const net::UpdateInstance& inst,
                                         const SimFlowSpec& spec,
                                         UpdateRunReport& rep) const {
  for (const net::NodeId v : inst.switches_to_update()) {
    const FlowEntry e = new_rule_entry(inst, spec, v);
    const SimTime act =
        ctrl_->activation_time(static_cast<SwitchId>(v), e);
    if (act != kNever) rep.result.applied[static_cast<SwitchId>(v)] = act;
  }
}

void ResilientExecutor::verify_timed_run(const net::UpdateInstance& inst,
                                         SimTime step_unit,
                                         UpdateRunReport& rep) const {
  std::map<net::NodeId, std::int64_t> acts;
  for (const auto& [sw, t] : rep.result.applied) acts[sw] = t;
  const timenet::UpdateSchedule achieved =
      timenet::schedule_from_activations(acts, step_unit);
  rep.verification = timenet::verify_transition(inst, achieved);
  rep.verified = true;
}

void ResilientExecutor::recover(const net::UpdateInstance& inst,
                                const SimFlowSpec& spec, SimTime step_unit,
                                std::set<net::NodeId> updated,
                                UpdateRunReport& rep) {
  while (rep.replans < policy_.max_replans) {
    const auto residual = residual_instance(inst, updated);
    if (!residual) {
      note(rep, "partial state loops or blackholes — re-plan impossible");
      break;
    }
    if (residual->switches_to_update().empty()) {
      note(rep, "partial state already equals the target — nothing to re-plan");
      rep.completed = true;
      rep.result.finish = ctrl_->clock();
      finalize_applied(inst, spec, rep);
      verify_timed_run(inst, step_unit, rep);
      return;
    }
    const core::ScheduleResult plan = core::greedy_schedule(*residual);
    if (plan.status == core::ScheduleStatus::kInfeasible) {
      note(rep, "suffix re-plan infeasible: " + plan.message);
      break;
    }
    ++rep.replans;
    if (rep.fallback == UpdateRunReport::Fallback::kNone) {
      rep.fallback = UpdateRunReport::Fallback::kReplan;
    }
    {
      std::ostringstream os;
      os << "re-planned " << residual->switches_to_update().size()
         << " pending switch(es) from the applied state (re-plan #"
         << rep.replans << ")";
      note(rep, os.str());
    }
    // Let in-flight traffic of the aborted attempt drain before the new
    // plan's premise (initial config == current config) holds.
    ctrl_->advance_clock(ctrl_->clock() + drain_time(inst, step_unit));
    const SimTime t0 = ctrl_->clock() + policy_.dispatch_lead;
    const TimedOutcome out =
        execute_timed_once(*residual, spec, plan.schedule, t0, step_unit, rep);
    updated.insert(out.updated.begin(), out.updated.end());
    if (out.complete) {
      rep.completed = true;
      rep.result.finish = out.finish;
      finalize_applied(inst, spec, rep);
      verify_timed_run(inst, step_unit, rep);
      return;
    }
  }
  if (policy_.allow_two_phase_fallback &&
      two_phase_overlay(inst, spec, step_unit, updated, rep)) {
    rep.fallback = UpdateRunReport::Fallback::kTwoPhase;
    rep.completed = true;
    return;
  }
  rollback(inst, spec, step_unit, updated, rep);
}

bool ResilientExecutor::two_phase_overlay(const net::UpdateInstance& inst,
                                          const SimFlowSpec& spec,
                                          SimTime step_unit,
                                          const std::set<net::NodeId>& updated,
                                          UpdateRunReport& rep) {
  Network& net = ctrl_->network();
  const net::Path& fin = inst.p_fin();
  note(rep, "falling back to a two-phase (versioned) overlay of p_fin");

  // Phase 1 — install the versioned generation above the tag-agnostic
  // rules (tagged packets prefer it; untagged in-flight traffic is blind
  // to it).
  std::vector<std::pair<SwitchId, FlowEntry>> overlay;
  for (std::size_t i = 1; i + 1 < fin.size(); ++i) {
    overlay.emplace_back(
        static_cast<SwitchId>(fin[i]),
        make_forwarding_entry(spec, net.port_towards(fin[i], fin[i + 1]),
                              kNewVersion, /*priority_delta=*/5));
  }
  overlay.emplace_back(
      static_cast<SwitchId>(fin.back()),
      make_forwarding_entry(spec, kHostPort, kNewVersion, 5));

  const auto undo_overlay = [&](std::size_t upto) {
    for (std::size_t k = 0; k < upto; ++k) {
      ensure_absent(rep, overlay[k].first, overlay[k].second.match,
                    overlay[k].second.priority);
    }
  };
  for (std::size_t k = 0; k < overlay.size(); ++k) {
    if (!ensure_entry(rep, overlay[k].first, overlay[k].second)) {
      note(rep, "overlay install unconfirmed — undoing two-phase fallback");
      undo_overlay(k);
      return false;
    }
  }

  // Phase 2 — flip the ingress onto the new version.
  const FlowEntry stamp = make_stamping_entry(
      spec, kNewVersion, net.port_towards(fin.front(), fin[1]));
  const SwitchId ingress = static_cast<SwitchId>(fin.front());
  if (!ensure_entry(rep, ingress, stamp)) {
    note(rep, "ingress flip unconfirmed — undoing two-phase fallback");
    undo_overlay(overlay.size());
    return false;
  }
  rep.result.flip_time = ctrl_->activation_time(ingress, stamp);
  rep.result.applied[ingress] = rep.result.flip_time;
  for (const auto& [sw, e] : overlay) {
    rep.result.applied[sw] = ctrl_->activation_time(sw, e);
  }

  // Phase 3 — drain the untagged generation, then garbage-collect its
  // tag-agnostic rules (best-effort; leftovers are shadowed anyway).
  ctrl_->advance_clock(rep.result.flip_time + drain_time(inst, step_unit));
  Match old_match;
  old_match.dst_prefix = spec.dst_prefix;
  std::set<net::NodeId> holders(inst.p_init().begin(), inst.p_init().end());
  for (const net::NodeId v : inst.switches_to_update()) holders.insert(v);
  for (const net::NodeId v : holders) {
    if (!ensure_absent(rep, static_cast<SwitchId>(v), old_match,
                       spec.rule_priority)) {
      note(rep, "tag-agnostic rule on switch " + std::to_string(v) +
                    " not collected (shadowed, left behind)");
    }
  }
  rep.result.finish = ctrl_->clock();

  // Consistency monitor: the timed prefix (old -> partial state), then the
  // per-packet flip from that partial state onto p_fin.
  rep.verification = timenet::TransitionReport{};
  if (!updated.empty()) {
    std::map<net::NodeId, std::int64_t> acts;
    for (const net::NodeId v : updated) {
      const SimTime act = ctrl_->activation_time(
          static_cast<SwitchId>(v), new_rule_entry(inst, spec, v));
      if (act != kNever) acts[v] = act;
    }
    rep.verification.merge(timenet::verify_transition(
        inst, timenet::schedule_from_activations(acts, step_unit)));
  }
  const auto residual = residual_instance(inst, updated);
  const net::UpdateInstance& pre_flip = residual ? *residual : inst;
  timenet::UpdateSchedule empty;
  timenet::FlowTransition ft;
  ft.instance = &pre_flip;
  ft.schedule = &empty;
  ft.per_packet_flip = timenet::TimePoint{0};
  rep.verification.merge(timenet::verify_transitions({ft}, {}));
  rep.verified = true;
  return true;
}

void ResilientExecutor::rollback(const net::UpdateInstance& inst,
                                 const SimFlowSpec& spec, SimTime step_unit,
                                 const std::set<net::NodeId>& updated,
                                 UpdateRunReport& rep) {
  note(rep, "rolling back to the initial configuration");
  rep.fallback = UpdateRunReport::Fallback::kRollback;
  rep.rolled_back = true;
  Network& net = ctrl_->network();

  // Forward activations must be captured before the revert overwrites the
  // ledger's notion of "currently active since".
  std::map<net::NodeId, std::int64_t> forward_acts;
  for (const net::NodeId v : updated) {
    const SimTime act = ctrl_->activation_time(static_cast<SwitchId>(v),
                                               new_rule_entry(inst, spec, v));
    if (act != kNever) forward_acts[v] = act;
  }
  const auto pre_rollback = residual_instance(inst, updated);

  // R1 — restore old rules, source-side first, so new injections leave the
  // half-updated tail as early as possible.
  bool ok = true;
  std::vector<net::NodeId> order(updated.begin(), updated.end());
  const net::Path& init = inst.p_init();
  std::stable_sort(order.begin(), order.end(),
                   [&](net::NodeId a, net::NodeId b) {
                     return init.index_of(a) < init.index_of(b);
                   });
  std::map<net::NodeId, std::int64_t> revert_acts;
  std::vector<net::NodeId> orphans;
  for (const net::NodeId v : order) {
    if (const auto on = inst.old_next(v)) {
      const FlowEntry e =
          make_forwarding_entry(spec, net.port_towards(v, *on));
      if (ensure_entry(rep, static_cast<SwitchId>(v), e)) {
        revert_acts[v] = ctrl_->activation_time(static_cast<SwitchId>(v), e);
      } else {
        ok = false;
        note(rep, "rollback could not restore switch " + std::to_string(v));
      }
    } else {
      orphans.push_back(v);
    }
  }

  // R2 — drain, then delete new rules with no old-configuration owner.
  ctrl_->advance_clock(ctrl_->clock() + drain_time(inst, step_unit));
  for (const net::NodeId v : orphans) {
    const FlowEntry e = new_rule_entry(inst, spec, v);
    if (!ensure_absent(rep, static_cast<SwitchId>(v), e.match, e.priority)) {
      ok = false;
      note(rep, "rollback could not delete orphan rule on switch " +
                    std::to_string(v));
    }
  }
  rep.rollback_clean = ok;
  rep.completed = false;
  rep.result.finish = ctrl_->clock();
  rep.result.note += rep.result.note.empty() ? "rolled back" : "; rolled back";

  // Consistency monitor: the forward partial transition, then the revert
  // from the partial state back onto p_init.
  rep.verification = timenet::TransitionReport{};
  if (!forward_acts.empty()) {
    rep.verification.merge(timenet::verify_transition(
        inst, timenet::schedule_from_activations(forward_acts, step_unit)));
  }
  if (pre_rollback && !revert_acts.empty()) {
    try {
      const net::UpdateInstance revert = net::UpdateInstance::from_paths(
          inst.graph(), pre_rollback->p_init(), inst.p_init(),
          inst.demand());
      rep.verification.merge(timenet::verify_transition(
          revert, timenet::schedule_from_activations(revert_acts, step_unit)));
    } catch (const std::exception&) {
      note(rep, "revert transition not verifiable (degenerate paths)");
    }
  }
  rep.verified = true;
}

UpdateRunReport ResilientExecutor::run_timed(
    const net::UpdateInstance& inst, const SimFlowSpec& spec,
    const timenet::UpdateSchedule& schedule, SimTime t0, SimTime step_unit) {
  CHRONUS_SPAN("executor.run_timed");
  UpdateRunReport rep;
  const RunTally tally{&rep};
  const FaultStats before = fault_snapshot();
  rep.result.start = ctrl_->clock();
  const TimedOutcome out =
      execute_timed_once(inst, spec, schedule, t0, step_unit, rep);
  if (out.complete) {
    rep.completed = true;
    rep.result.finish = out.finish;
    finalize_applied(inst, spec, rep);
    verify_timed_run(inst, step_unit, rep);
  } else {
    recover(inst, spec, step_unit, out.updated, rep);
    rep.result.finish = std::max(rep.result.finish, ctrl_->clock());
  }
  rep.faults = fault_snapshot() - before;
  return rep;
}

UpdateRunReport ResilientExecutor::run_chronus(const net::UpdateInstance& inst,
                                               const SimFlowSpec& spec,
                                               SimTime t0, SimTime step_unit,
                                               const core::GreedyOptions& gopts) {
  const core::ScheduleResult plan = core::greedy_schedule(inst, gopts);
  if (plan.status == core::ScheduleStatus::kInfeasible) {
    obs::add("executor.plan_infeasible");
    UpdateRunReport rep;
    rep.result.start = ctrl_->clock();
    rep.result.plan_status = plan.status;
    rep.result.note = "greedy scheduler: " + plan.message;
    rep.result.finish = ctrl_->clock();
    return rep;
  }
  UpdateRunReport rep = run_timed(inst, spec, plan.schedule, t0, step_unit);
  rep.result.plan_status = plan.status;
  return rep;
}

UpdateRunReport ResilientExecutor::run_or(const net::UpdateInstance& inst,
                                          const SimFlowSpec& spec, SimTime t0,
                                          SimTime step_unit,
                                          const opt::OrderOptions& plan_opts) {
  CHRONUS_SPAN("executor.run_or");
  UpdateRunReport rep;
  const RunTally tally{&rep};
  const FaultStats before = fault_snapshot();
  ctrl_->advance_clock(t0);
  rep.result.start = ctrl_->clock();

  const opt::OrderResult plan = opt::solve_order_replacement(inst, plan_opts);
  if (!plan.feasible) {
    rep.result.plan_status = core::ScheduleStatus::kInfeasible;
    rep.result.note = "OR planner: " + plan.message;
    rep.result.finish = ctrl_->clock();
    rep.faults = fault_snapshot() - before;
    return rep;
  }

  for (const auto& round : plan.rounds) {
    std::vector<std::pair<net::NodeId, FlowEntry>> sent;
    for (const net::NodeId v : round) {
      const FlowEntry e = new_rule_entry(inst, spec, v);
      rep.result.applied[static_cast<SwitchId>(v)] =
          ctrl_->send_flow_mod(static_cast<SwitchId>(v), add_mod(e));
      sent.emplace_back(v, e);
    }
    SimTime round_done = ctrl_->clock();
    for (const net::NodeId v : round) {
      round_done =
          std::max(round_done, ctrl_->barrier(static_cast<SwitchId>(v)));
      ++rep.barrier_rounds;
    }
    ctrl_->advance_clock(round_done);
    // Round confirmation: the seed executor trusts the barrier; the ledger
    // also catches mods the barrier cannot see (drops).
    for (const auto& [v, e] : sent) {
      if (rule_active(static_cast<SwitchId>(v), e)) continue;
      if (!ensure_entry(rep, static_cast<SwitchId>(v), e)) {
        note(rep, "round confirmation failed on switch " + std::to_string(v) +
                      " — entering recovery");
        std::set<net::NodeId> updated;
        for (const net::NodeId u : inst.switches_to_update()) {
          if (rule_active(static_cast<SwitchId>(u),
                          new_rule_entry(inst, spec, u))) {
            updated.insert(u);
          }
        }
        recover(inst, spec, step_unit, updated, rep);
        rep.result.finish = std::max(rep.result.finish, ctrl_->clock());
        rep.faults = fault_snapshot() - before;
        return rep;
      }
      rep.result.applied[static_cast<SwitchId>(v)] =
          ctrl_->activation_time(static_cast<SwitchId>(v), e);
    }
  }
  rep.result.finish = ctrl_->clock();
  rep.completed = true;
  finalize_applied(inst, spec, rep);
  verify_timed_run(inst, step_unit, rep);
  rep.faults = fault_snapshot() - before;
  return rep;
}

UpdateRunReport ResilientExecutor::run_two_phase(const net::UpdateInstance& inst,
                                                 const SimFlowSpec& spec,
                                                 SimTime t0,
                                                 SimTime drain_margin,
                                                 [[maybe_unused]] SimTime step_unit) {
  CHRONUS_SPAN("executor.run_two_phase");
  UpdateRunReport rep;
  const RunTally tally{&rep};
  const FaultStats before = fault_snapshot();
  ctrl_->advance_clock(t0);
  rep.result.start = ctrl_->clock();
  Network& net = ctrl_->network();
  const net::Path& fin = inst.p_fin();

  const auto fail_and_undo = [&](const std::vector<std::pair<SwitchId, FlowEntry>>&
                                     installed,
                                 const char* why) {
    note(rep, std::string(why) + " — removing the new generation");
    bool clean = true;
    for (const auto& [sw, e] : installed) {
      clean = ensure_absent(rep, sw, e.match, e.priority) && clean;
    }
    rep.rolled_back = true;
    rep.rollback_clean = clean;
    rep.fallback = UpdateRunReport::Fallback::kRollback;
    rep.completed = false;
    rep.result.finish = ctrl_->clock();
    rep.result.note = "two-phase aborted: old generation stays active";
    rep.verification =
        timenet::verify_transition(inst, timenet::UpdateSchedule{});
    rep.verified = true;
    rep.faults = fault_snapshot() - before;
    return rep;
  };

  // Phase 1 (seed order): install the new generation alongside the old.
  std::vector<std::pair<SwitchId, FlowEntry>> gen;
  SimTime installed = ctrl_->clock();
  for (std::size_t i = 0; i + 1 < fin.size(); ++i) {
    if (i == 0) continue;  // the ingress forwards via its stamping rule
    const FlowEntry e = make_forwarding_entry(
        spec, net.port_towards(fin[i], fin[i + 1]), kNewVersion);
    rep.result.applied[static_cast<SwitchId>(fin[i])] =
        ctrl_->send_flow_mod(static_cast<SwitchId>(fin[i]), add_mod(e));
    gen.emplace_back(static_cast<SwitchId>(fin[i]), e);
  }
  {
    const FlowEntry e = make_forwarding_entry(spec, kHostPort, kNewVersion);
    rep.result.applied[static_cast<SwitchId>(fin.back())] =
        ctrl_->send_flow_mod(static_cast<SwitchId>(fin.back()), add_mod(e));
    gen.emplace_back(static_cast<SwitchId>(fin.back()), e);
  }
  for (std::size_t i = 1; i < fin.size(); ++i) {
    installed =
        std::max(installed, ctrl_->barrier(static_cast<SwitchId>(fin[i])));
    ++rep.barrier_rounds;
  }
  ctrl_->advance_clock(installed);
  for (const auto& [sw, e] : gen) {
    if (rule_active(sw, e)) continue;
    if (!ensure_entry(rep, sw, e)) {
      return fail_and_undo(gen, "new-generation install unconfirmed");
    }
    rep.result.applied[sw] = ctrl_->activation_time(sw, e);
  }

  // Phase 2: flip the ingress stamping rule.
  const FlowEntry stamp = make_stamping_entry(
      spec, kNewVersion, net.port_towards(fin.front(), fin[1]));
  const SwitchId ingress = static_cast<SwitchId>(fin.front());
  rep.result.flip_time = ctrl_->send_flow_mod(ingress, add_mod(stamp));
  rep.result.applied[ingress] = rep.result.flip_time;
  ctrl_->advance_clock(ctrl_->barrier(ingress));
  ++rep.barrier_rounds;
  if (!rule_active(ingress, stamp)) {
    if (!ensure_entry(rep, ingress, stamp)) {
      // Un-flip is unnecessary: the old stamping rule was never replaced.
      return fail_and_undo(gen, "ingress flip unconfirmed");
    }
    rep.result.flip_time = ctrl_->activation_time(ingress, stamp);
    rep.result.applied[ingress] = rep.result.flip_time;
  }

  // Phase 3: drain, then garbage-collect the old generation.
  ctrl_->advance_clock(rep.result.flip_time + drain_margin);
  const net::Path& init = inst.p_init();
  SimTime cleaned = ctrl_->clock();
  FlowMod del;
  del.type = FlowModType::kDeleteStrict;
  del.entry = make_forwarding_entry(spec, kNoPort, kOldVersion);
  for (std::size_t i = 1; i < init.size(); ++i) {
    ctrl_->send_flow_mod(static_cast<SwitchId>(init[i]), del);
    cleaned =
        std::max(cleaned, ctrl_->barrier(static_cast<SwitchId>(init[i])));
    ++rep.barrier_rounds;
  }
  ctrl_->advance_clock(cleaned);
  for (std::size_t i = 1; i < init.size(); ++i) {
    if (!ensure_absent(rep, static_cast<SwitchId>(init[i]), del.entry.match,
                       del.entry.priority)) {
      note(rep, "old-generation rule on switch " + std::to_string(init[i]) +
                    " not collected (shadowed, left behind)");
    }
  }
  rep.result.finish = ctrl_->clock();
  rep.completed = true;

  // Consistency monitor: per-packet semantics, anchored at the flip.
  timenet::UpdateSchedule empty;
  timenet::FlowTransition ft;
  ft.instance = &inst;
  ft.schedule = &empty;
  ft.per_packet_flip = timenet::TimePoint{0};
  rep.verification = timenet::verify_transitions({ft}, {});
  rep.verified = true;
  rep.faults = fault_snapshot() - before;
  return rep;
}

}  // namespace chronus::sim
