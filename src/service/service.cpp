#include "service/service.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/multi_flow.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/chaos.hpp"
#include "sim/updaters.hpp"
#include "timenet/verifier.hpp"
#include "util/contracts.hpp"

namespace chronus::service {

void DegradationPolicy::validate() const {
  CHRONUS_EXPECTS(latency_slo >= 0, "latency_slo must be non-negative");
  const auto rung = [](std::size_t enter, std::size_t exit, const char* msg) {
    CHRONUS_EXPECTS(enter == 0 || exit < enter, msg);
  };
  rung(greedy_enter, greedy_exit, "greedy_exit must be below greedy_enter");
  rung(defer_enter, defer_exit, "defer_exit must be below defer_enter");
  rung(shed_enter, shed_exit, "shed_exit must be below shed_enter");
  // Enter thresholds must be non-decreasing up the ladder wherever two
  // adjacent rungs are both enabled, else a depth could skip a rung's
  // window entirely and the ladder order would be meaningless.
  if (greedy_enter > 0 && defer_enter > 0) {
    CHRONUS_EXPECTS(greedy_enter <= defer_enter,
                    "defer_enter must be at or above greedy_enter");
  }
  if (defer_enter > 0 && shed_enter > 0) {
    CHRONUS_EXPECTS(defer_enter <= shed_enter,
                    "shed_enter must be at or above defer_enter");
  }
}

namespace {

int violation_count(const timenet::TransitionReport& rep) {
  return static_cast<int>(rep.congestion.size() + rep.loops.size() +
                          rep.blackholes.size());
}

net::UpdateInstance make_instance(net::Graph g, const UpdateRequest& req) {
  return net::UpdateInstance::from_paths(std::move(g), req.p_init, req.p_fin,
                                         req.demand);
}

/// Puts `base`'s capacities back on the links `fp` restricted. Since
/// restricted_graph changes nothing else, `inst`'s graph then equals `base`
/// link for link, and the plan's instance can run the execution.
void restore_capacities(net::UpdateInstance& inst, const net::Graph& base,
                        const Footprint& fp) {
  for (const auto& [id, _] : fp) {
    inst.mutable_graph().set_capacity(id, base.link(id).capacity);
  }
}

/// Planning outcome of one admitted single or group.
struct PlanResult {
  bool feasible = false;
  timenet::UpdateSchedule schedule;  ///< singles
  core::MultiFlowResult joint;       ///< groups
  bool verified = false;             ///< plan re-check under the reservation
  int violations = 0;
  std::string message;
};

/// Execution outcome of one admitted request.
struct ExecResult {
  bool ran = false;
  bool completed = false;
  bool verified = false;
  int violations = 0;
  sim::SimTime duration = 0;
  int retries = 0;
  std::uint64_t faults = 0;  ///< chaos faults injected during this run
  std::string message;
};

/// Executes one planned schedule in a private simulation of `inst`, whose
/// graph must carry the original capacities: own event queue, controller
/// and RNG stream derived from (service seed, request id), so the outcome
/// depends on nothing else the service does. `admitted_at` is the
/// service-time admission instant the chaos scenario (if any) is compiled
/// against: the campaign's phases are translated into the private
/// simulation's time base and max-merged into the always-on fault floor,
/// and the injector stream is derived from (service seed, scenario seed,
/// request id).
void exec_job(const net::UpdateInstance& inst, const UpdateRequest& req,
              const timenet::UpdateSchedule& schedule,
              const ServiceOptions& opts, sim::SimTime admitted_at,
              ExecResult* out) {
  try {
    sim::Network net(inst.graph(), opts.step_unit, opts.bps_per_unit);
    sim::EventQueue eq;
    util::Rng parent(opts.seed);
    util::Rng rng = parent.fork(req.id);
    sim::Controller ctrl(eq, net, rng, opts.channel);

    sim::FaultModel faults = opts.faults;
    if (opts.chaos != nullptr) {
      // The private simulation spans the dispatch lead plus the schedule,
      // with slack for retries; phases overlapping that service-time window
      // become forced-outage windows and merged rates.
      const sim::SimTime span =
          opts.dispatch_lead + (schedule.step_span() + 4) * opts.step_unit;
      opts.chaos->apply_at(admitted_at, span, faults);
    }
    std::optional<sim::FaultInjector> injector;
    if (faults.enabled()) {
      const std::uint64_t scenario_seed =
          opts.chaos != nullptr ? opts.chaos->seed : 0;
      injector.emplace(std::move(faults),
                       opts.seed ^ (scenario_seed * 0x2545F4914F6CDD1DULL) ^
                           (0x9E3779B97F4A7C15ULL * (req.id + 0x5EEDULL)));
      ctrl.attach_fault_injector(&*injector);
    }

    sim::SimFlowSpec spec;
    spec.name = req.name.empty() ? "r" + std::to_string(req.id) : req.name;
    spec.rate_bps = req.demand.value() * opts.bps_per_unit;
    sim::install_initial_rules(ctrl, inst, spec);

    sim::ResilientExecutor executor(
        ctrl, opts.retry, opts.seed ^ (0x9E3779B97F4A7C15ULL * (req.id + 1)));
    const sim::UpdateRunReport rep = executor.run_timed(
        inst, spec, schedule, opts.dispatch_lead, opts.step_unit);
    out->ran = true;
    out->completed = rep.completed;
    out->verified = rep.verified && rep.verification.ok();
    out->violations = violation_count(rep.verification);
    out->duration = rep.result.finish;
    out->retries = rep.retries;
    out->faults = rep.faults.injected();
  } catch (const std::exception& e) {
    out->message = e.what();
  }
}

/// Service order, both for admission and for keeping under shedding:
/// high priority first, then oldest (lowest id).
bool served_before(const PendingRequest& a, const PendingRequest& b) {
  return a.request->priority != b.request->priority
             ? a.request->priority > b.request->priority
             : a.request->id < b.request->id;
}

struct SingleJob {
  std::size_t pend_idx = 0;
  PlanResult plan;
  ExecResult exec;
};

struct GroupJob {
  JointGroup group;
  PlanResult plan;
  std::vector<ExecResult> execs;  ///< one per member
};

/// One job's scope: the span starts a fresh "workerpool.job" path (not one
/// under service.run), so the layer readout finds every job at one path.
obs::Span job_span() {
  obs::add("workerpool.jobs");
  return obs::Span::root("workerpool.job");
}

/// Plans one request alone against its reservation-restricted graph and,
/// when the plan is feasible and `opts.execute` is set, executes it on the
/// same instance once `base`'s capacities are back. A pure function of
/// (request, graph, derived seed), like every job.
void single_job(net::Graph restricted, const net::Graph& base,
                const PendingRequest& p, const ServiceOptions& opts,
                sim::SimTime now, SingleJob* job) {
  const obs::Span span = job_span();
  PlanResult& out = job->plan;
  try {
    net::UpdateInstance inst =
        make_instance(std::move(restricted), *p.request);
    core::ScheduleResult res = core::greedy_schedule(inst, opts.greedy);
    if (!res.feasible()) {
      out.message = res.message.empty() ? "unschedulable" : res.message;
      return;
    }
    // The greedy guard already checked each step; re-verify the complete
    // plan under the reservation capacities so the record carries an
    // end-to-end verdict independent of the scheduler.
    const timenet::TransitionReport rep =
        timenet::verify_transition(inst, res.schedule);
    out.feasible = true;
    out.schedule = std::move(res.schedule);
    out.verified = rep.ok();
    out.violations = violation_count(rep);
    if (!opts.execute) return;
    restore_capacities(inst, base, p.footprint);
    exec_job(inst, *p.request, out.schedule, opts, now, &job->exec);
  } catch (const std::exception& e) {
    out.message = e.what();
  }
}

/// Plans a conflict group jointly under the group reservation and, when
/// the plan is feasible and `opts.execute` is set, executes each member on
/// its planning instance once `base`'s capacities are back.
void group_job(const net::Graph& group_graph, const net::Graph& base,
               const std::vector<PendingRequest>& pending,
               const ServiceOptions& opts, sim::SimTime now, GroupJob* job) {
  const obs::Span span = job_span();
  PlanResult& out = job->plan;
  try {
    std::vector<net::UpdateInstance> flows;
    flows.reserve(job->group.members.size());
    for (const std::size_t idx : job->group.members) {
      flows.push_back(make_instance(group_graph, *pending[idx].request));
    }
    out.joint = core::schedule_flows_jointly(flows);
    if (!out.joint.feasible()) {
      out.message =
          out.joint.message.empty() ? "joint plan infeasible" : out.joint.message;
      return;
    }
    std::vector<timenet::FlowTransition> transitions;
    transitions.reserve(flows.size());
    for (std::size_t k = 0; k < flows.size(); ++k) {
      timenet::FlowTransition ft;
      ft.instance = &flows[k];
      ft.schedule = &out.joint.schedules[k];
      transitions.push_back(ft);
    }
    const timenet::TransitionReport rep =
        timenet::verify_transitions(transitions);
    out.feasible = true;
    out.verified = rep.ok();
    out.violations = violation_count(rep);
    if (!opts.execute) return;
    for (std::size_t m = 0; m < flows.size(); ++m) {
      restore_capacities(flows[m], base, job->group.reservation);
      exec_job(flows[m], *pending[job->group.members[m]].request,
               out.joint.schedules[m], opts, now, &job->execs[m]);
    }
  } catch (const std::exception& e) {
    out.message = e.what();
  }
}

}  // namespace

UpdateService::UpdateService(net::Graph base, ServiceOptions opts)
    : base_(std::move(base)), opts_(opts) {
  if (opts_.epoch < 1) throw std::invalid_argument("epoch must be positive");
  if (opts_.step_unit < 1) {
    throw std::invalid_argument("step_unit must be positive");
  }
  opts_.degradation.validate();
  opts_.faults.validate();
  if (opts_.chaos != nullptr) opts_.chaos->validate();
}

ServiceReport UpdateService::run(std::vector<UpdateRequest> requests) {
  CHRONUS_SPAN("service.run");
  obs::add("service.requests", requests.size());
  std::sort(requests.begin(), requests.end(),
            [](const UpdateRequest& a, const UpdateRequest& b) {
              return a.arrival != b.arrival ? a.arrival < b.arrival
                                            : a.id < b.id;
            });
  CHRONUS_EXPECTS(requests.empty() || requests.back().arrival <= kMaxArrival,
                  "arrival beyond kMaxArrival");

  // Records are kept in ascending request-id order (the canonical order of
  // the report and its digest).
  ServiceReport report;
  report.records.resize(requests.size());
  std::map<std::uint64_t, std::size_t> record_of;
  {
    std::vector<std::uint64_t> ids;
    ids.reserve(requests.size());
    for (const UpdateRequest& r : requests) ids.push_back(r.id);
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
      throw std::invalid_argument("request ids must be unique");
    }
    for (std::size_t i = 0; i < ids.size(); ++i) record_of.emplace(ids[i], i);
  }
  const auto record = [&](const UpdateRequest& r) -> RequestRecord& {
    return report.records[record_of.at(r.id)];
  };

  const sim::SimTime epoch = opts_.epoch;
  const auto quantize_up = [epoch](sim::SimTime t) {
    return ((t + epoch - 1) / epoch) * epoch;
  };

  AdmissionController admission(base_, opts_.admission);
  CapacityLedger ledger(base_);

  const DegradationPolicy& ladder = opts_.degradation;
  DegradationMode health = DegradationMode::kFull;
  const auto exit_depth = [&ladder](DegradationMode m) -> std::size_t {
    switch (m) {
      case DegradationMode::kGreedyOnly:
        return ladder.greedy_exit;
      case DegradationMode::kDefer:
        return ladder.defer_exit;
      case DegradationMode::kShed:
        return ladder.shed_exit;
      case DegradationMode::kFull:
        break;
    }
    return 0;
  };

  // Each entry points into `requests`, which is not reordered after the
  // sort above.
  std::vector<PendingRequest> pending;
  // In-flight reservations keyed by (release instant, admission sequence):
  // completions fold back in deterministic order.
  std::map<std::pair<sim::SimTime, std::uint64_t>, Footprint> inflight;
  std::uint64_t admit_seq = 0;
  std::size_t next_arrival = 0;
  sim::SimTime now =
      requests.empty() ? 0 : quantize_up(requests.front().arrival);

  while (next_arrival < requests.size() || !pending.empty() ||
         !inflight.empty()) {
    obs::add("service.epochs");
    // 1. Fold due completions back into the ledger.
    while (!inflight.empty() && inflight.begin()->first.first <= now) {
      ledger.release(inflight.begin()->second);
      inflight.erase(inflight.begin());
    }

    // 2. Ingest arrivals up to this boundary.
    while (next_arrival < requests.size() &&
           requests[next_arrival].arrival <= now) {
      const UpdateRequest& r = requests[next_arrival];
      RequestRecord& rec = record(r);
      rec.id = r.id;
      rec.arrival = r.arrival;
      try {
        PendingRequest p;
        p.request = &r;
        p.footprint = transition_footprint(base_, r.p_init, r.p_fin, r.demand);
        pending.push_back(std::move(p));
      } catch (const std::exception& e) {
        rec.status = RequestStatus::kRejectedInfeasible;
        rec.completed = now;
        rec.message = e.what();
      }
      ++next_arrival;
    }

    // 2b. The degradation ladder. Everything below reads only the queue
    // depth and the virtual clock, so a degraded run replays bit-
    // identically; with the default (disabled) policy none of it runs.
    const auto set_health = [&](DegradationMode m) {
      if (m == health) return;
      health = m;
      report.health_log.emplace_back(now, m);
      obs::add("service.health_transitions");
      obs::gauge_set("service.health_state", static_cast<std::int64_t>(m));
    };

    // Watchdog: cancel requests still queued past the latency SLO instead
    // of planning them hopelessly late.
    if (ladder.latency_slo > 0 && !pending.empty()) {
      std::vector<PendingRequest> fresh;
      fresh.reserve(pending.size());
      for (PendingRequest& p : pending) {
        const UpdateRequest& r = *p.request;
        if (now - r.arrival > ladder.latency_slo) {
          RequestRecord& rec = record(r);
          rec.status = RequestStatus::kWatchdogTimeout;
          rec.completed = now;
          rec.defers = p.defers;
          rec.degradation = health;
          rec.message = "queued past the latency SLO";
          obs::add("service.watchdog_fires");
        } else {
          fresh.push_back(std::move(p));
        }
      }
      pending = std::move(fresh);
    }

    // Walk the ladder on the post-watchdog queue depth: escalate straight
    // to the highest tripped rung, de-escalate one rung per epoch once the
    // depth reaches the current rung's exit threshold.
    if (ladder.enabled()) {
      const std::size_t depth = pending.size();
      DegradationMode tripped = DegradationMode::kFull;
      if (ladder.greedy_enter > 0 && depth >= ladder.greedy_enter) {
        tripped = DegradationMode::kGreedyOnly;
      }
      if (ladder.defer_enter > 0 && depth >= ladder.defer_enter) {
        tripped = DegradationMode::kDefer;
      }
      if (ladder.shed_enter > 0 && depth >= ladder.shed_enter) {
        tripped = DegradationMode::kShed;
      }
      if (tripped > health) {
        set_health(tripped);
      } else if (health > DegradationMode::kFull &&
                 depth <= exit_depth(health)) {
        set_health(
            static_cast<DegradationMode>(static_cast<int>(health) - 1));
      }
      if (health != DegradationMode::kFull) obs::add("service.degraded_epochs");
    }

    // Shed rung: reject the lowest-priority, youngest tail of the queue
    // outright until the depth is back at shed_exit.
    if (health == DegradationMode::kShed && pending.size() > ladder.shed_exit) {
      std::sort(pending.begin(), pending.end(), served_before);
      for (std::size_t i = ladder.shed_exit; i < pending.size(); ++i) {
        const UpdateRequest& r = *pending[i].request;
        RequestRecord& rec = record(r);
        rec.status = RequestStatus::kShedOverload;
        rec.completed = now;
        rec.defers = pending[i].defers;
        rec.degradation = DegradationMode::kShed;
        rec.message = "shed under overload";
        obs::add("service.shed");
      }
      pending.resize(ladder.shed_exit);
    }

    // Defer and shed pause admission — but only while the backlog can
    // still drain through in-flight completions or future arrivals can
    // still deepen it. Once neither holds, holding the queue would starve
    // it forever, so the effective mode falls back to greedy-only.
    DegradationMode effective = health;
    if (effective >= DegradationMode::kDefer && inflight.empty() &&
        next_arrival >= requests.size()) {
      effective = DegradationMode::kGreedyOnly;
    }

    // 3. One admission round over the queue, in service order.
    if (!pending.empty() && effective < DegradationMode::kDefer) {
      std::sort(pending.begin(), pending.end(), served_before);
      // The greedy-only rung plans through the same controller with joint
      // batching off — the cheapest way to keep admitting under pressure.
      AdmissionRound round =
          admission.decide(pending, ledger, now,
                           effective != DegradationMode::kGreedyOnly);
      ++report.admission_rounds;

      std::vector<char> resolved(pending.size(), 0);
      for (const auto& [idx, status] : round.rejected) {
        RequestRecord& rec = record(*pending[idx].request);
        rec.status = status;
        rec.completed = now;
        rec.defers = pending[idx].defers;
        rec.degradation = health;
        resolved[idx] = 1;
      }

      // 4. Run each reserved single, then each group, as one job: plan,
      // then (for a feasible plan) execute.
      std::vector<SingleJob> singles(round.singles.size());
      for (std::size_t s = 0; s < round.singles.size(); ++s) {
        SingleJob& job = singles[s];
        job.pend_idx = round.singles[s];
        const PendingRequest& p = pending[job.pend_idx];
        single_job(ledger.restricted_graph(base_, p.footprint), base_, p,
                   opts_, now, &job);
      }
      std::vector<GroupJob> groups(round.groups.size());
      for (std::size_t gi = 0; gi < round.groups.size(); ++gi) {
        GroupJob& job = groups[gi];
        job.group = std::move(round.groups[gi]);
        job.execs.resize(job.group.members.size());
        group_job(ledger.restricted_graph(base_, job.group.reservation), base_,
                  pending, opts_, now, &job);
      }

      // 5. Commit results in request order; all ledger and record
      // mutations happen here, on the dispatcher.
      const auto commit_member = [&](const UpdateRequest& r,
                                     const PendingRequest& p,
                                     const PlanResult& plan,
                                     const ExecResult& exec,
                                     std::int64_t span, bool count_plan,
                                     bool joint) -> sim::SimTime {
        RequestRecord& rec = record(r);
        rec.admitted = now;
        rec.defers = p.defers;
        rec.joint = joint;
        rec.plan_span = span;
        rec.plan_verified = plan.verified;
        rec.degradation = health;
        if (count_plan) rec.violations += plan.violations;
        sim::SimTime duration = 0;
        if (opts_.execute) {
          if (exec.ran) {
            rec.status = exec.completed ? RequestStatus::kCompleted
                                        : RequestStatus::kFailed;
            rec.run_verified = exec.verified;
            rec.violations += exec.violations;
            rec.exec_duration = exec.duration;
            rec.exec_retries = exec.retries;
            rec.faults = exec.faults;
            if (exec.faults > 0) obs::add("service.faults_injected", exec.faults);
            rec.message = exec.message;
            duration = exec.duration;
          } else {
            rec.status = RequestStatus::kFailed;
            rec.message = exec.message.empty() ? "execution error"
                                               : exec.message;
            duration = opts_.dispatch_lead;
          }
        } else {
          rec.status = RequestStatus::kCompleted;
          rec.run_verified = plan.verified;
          duration = opts_.dispatch_lead + span * opts_.step_unit;
        }
        const sim::SimTime due = quantize_up(now + std::max<sim::SimTime>(
                                                       duration, 1));
        rec.completed = due;
        // Virtual (simulated) latency: a function of the deterministic
        // epoch dispatch alone, so it replays bit-identically — deliberately
        // not a _wall_us metric.
        obs::observe("service.request_latency_us", due - r.arrival);
        return due;
      };

      for (SingleJob& job : singles) {
        const PendingRequest& p = pending[job.pend_idx];
        const UpdateRequest& r = *p.request;
        if (!job.plan.feasible) {
          ledger.release(p.footprint);
          record(r).message = job.plan.message;
          continue;  // stays pending, deferred below
        }
        const sim::SimTime due =
            commit_member(r, p, job.plan, job.exec,
                          job.plan.schedule.step_span(), /*count_plan=*/true,
                          /*joint=*/false);
        inflight.emplace(std::make_pair(due, admit_seq++), p.footprint);
        resolved[job.pend_idx] = 1;
      }

      for (GroupJob& job : groups) {
        if (!job.plan.feasible) {
          ledger.release(job.group.reservation);
          for (const std::size_t idx : job.group.members) {
            record(*pending[idx].request).message = job.plan.message;
            // Don't re-attempt the same doomed batch next epoch; its
            // members go back to the individual path for a while.
            pending[idx].joint_cooldown = opts_.admission.joint_after_defers;
          }
          continue;  // members stay pending
        }
        ++report.joint_batches;
        sim::SimTime group_due = 0;
        for (std::size_t m = 0; m < job.group.members.size(); ++m) {
          const PendingRequest& p = pending[job.group.members[m]];
          const UpdateRequest& r = *p.request;
          // Group-level plan violations are attributed to the first member
          // only, so the report-wide sum counts each event once.
          const sim::SimTime due = commit_member(
              r, p, job.plan, job.execs[m],
              job.plan.joint.schedules[m].step_span(),
              /*count_plan=*/m == 0, /*joint=*/true);
          RequestRecord& rec = record(r);
          rec.batch = report.joint_batches;
          group_due = std::max(group_due, due);
          resolved[job.group.members[m]] = 1;
        }
        // The group reservation is held until the last member releases.
        inflight.emplace(std::make_pair(group_due, admit_seq++),
                         job.group.reservation);
      }

      std::vector<PendingRequest> survivors;
      survivors.reserve(pending.size());
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (resolved[i]) continue;
        PendingRequest p = std::move(pending[i]);
        ++p.defers;  // spent one more round in the queue
        if (p.joint_cooldown > 0) --p.joint_cooldown;
        survivors.push_back(std::move(p));
      }
      pending = std::move(survivors);
    }

    // 6. Advance the virtual clock to the next epoch boundary with work.
    sim::SimTime next = std::numeric_limits<sim::SimTime>::max();
    if (!inflight.empty()) next = std::min(next, inflight.begin()->first.first);
    if (next_arrival < requests.size()) {
      next = std::min(next, quantize_up(requests[next_arrival].arrival));
    }
    if (!pending.empty()) next = std::min(next, now + epoch);
    if (next == std::numeric_limits<sim::SimTime>::max()) break;
    now = next;
  }

  if (!ledger.idle()) {
    throw std::logic_error("capacity ledger not idle after drain");
  }
  report.peak_utilization = ledger.peak_utilization();
  report.finalize();
  if (obs::registry() != nullptr) {
    std::uint64_t completed = 0, failed = 0, rejected = 0;
    for (const RequestRecord& rec : report.records) {
      switch (rec.status) {
        case RequestStatus::kCompleted:
          ++completed;
          break;
        case RequestStatus::kFailed:
          ++failed;
          break;
        default:
          ++rejected;
          break;
      }
    }
    obs::add("service.completed", completed);
    obs::add("service.failed", failed);
    obs::add("service.rejected", rejected);
    obs::add("service.joint_batches", report.joint_batches);
  }
  return report;
}

}  // namespace chronus::service
