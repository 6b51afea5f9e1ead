#include "service/service.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

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
  rung(defer_enter, defer_exit, "defer_exit must be below defer_enter");
  rung(shed_enter, shed_exit, "shed_exit must be below shed_enter");
  // Enter thresholds must be non-decreasing up the ladder when both rungs
  // are enabled, else a depth could skip the defer window entirely and
  // the ladder order would be meaningless.
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

/// Puts `base`'s capacities back on the links `fp` restricted. Since a
/// reservation changes nothing else, `g` then equals `base` link for link,
/// and the plan's instance can run the execution.
void restore_capacities(net::Graph& g, const net::Graph& base,
                        const Footprint& fp) {
  for (const auto& [id, _] : fp) g.set_capacity(id, base.link(id).capacity);
}

/// True iff `g` carries `base`'s capacities on the links `fp` restricted,
/// so that (a job changing no other link) `g` equals `base` again.
[[maybe_unused]] bool restored(const net::Graph& g, const net::Graph& base,
                               const Footprint& fp) {
  return std::all_of(fp.begin(), fp.end(), [&](const auto& entry) {
    return g.link(entry.first).capacity == base.link(entry.first).capacity;
  });
}

/// Planning outcome of one admitted request.
struct PlanResult {
  bool feasible = false;
  timenet::UpdateSchedule schedule;
  bool verified = false;  ///< plan re-check under the reservation
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
  PlanResult plan;
  ExecResult exec;
};

/// Plans one request alone and, when the plan is feasible and
/// `opts.execute` is set, executes it on the same instance. `work` is the
/// service's working copy of `base`, lent for the job: its footprint links
/// are narrowed to the reservation, it moves into the plan's instance, and
/// it comes back with `base`'s capacities however the job ends. A pure
/// function of (request, reservation, derived seed), like every job.
void single_job(net::Graph& work, const net::Graph& base,
                const PendingRequest& p, const ServiceOptions& opts,
                sim::SimTime now, SingleJob* job) {
  obs::add("workerpool.jobs");
  // A fresh "workerpool.job" path (not one under service.run), so the
  // layer readout finds every job at one path.
  const obs::Span span = obs::Span::root("workerpool.job");
  PlanResult& out = job->plan;
  for (const auto& [id, amount] : p.footprint) {
    work.set_capacity(id, util::capacity_for(amount));
  }
  // The request passed UpdateInstance::validate at arrival, and `work`
  // has `base`'s links, so building the instance cannot throw.
  net::UpdateInstance inst = make_instance(std::move(work), *p.request);
  try {
    core::ScheduleResult res = core::greedy_schedule(inst, opts.greedy);
    if (res.feasible()) {
      // The greedy guard already checked each step; re-verify the complete
      // plan under the reservation capacities so the record carries an
      // end-to-end verdict independent of the scheduler.
      const timenet::TransitionReport rep =
          timenet::verify_transition(inst, res.schedule);
      out.feasible = true;
      out.schedule = std::move(res.schedule);
      out.verified = rep.ok();
      out.violations = violation_count(rep);
    } else {
      out.message = res.message.empty() ? "unschedulable" : res.message;
    }
  } catch (const std::exception& e) {
    out.message = e.what();
  }
  restore_capacities(inst.mutable_graph(), base, p.footprint);
  if (out.feasible && opts.execute) {
    exec_job(inst, *p.request, out.schedule, opts, now, &job->exec);
  }
  work = std::move(inst.mutable_graph());
  CHRONUS_ENSURES(restored(work, base, p.footprint),
                  "the working graph came back narrowed");
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
  if (!work_) work_.emplace(base_);

  const DegradationPolicy& ladder = opts_.degradation;
  DegradationMode health = DegradationMode::kFull;

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
        // The plan's instance would make these checks in every epoch; a
        // request that fails them can never be planned.
        net::UpdateInstance::validate(base_, r.p_init, r.p_fin, r.demand);
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
    // to the highest tripped rung, de-escalate one enabled rung per epoch
    // once the depth reaches the current rung's exit threshold.
    if (ladder.enabled()) {
      const std::size_t depth = pending.size();
      DegradationMode tripped = DegradationMode::kFull;
      if (ladder.defer_enter > 0 && depth >= ladder.defer_enter) {
        tripped = DegradationMode::kDefer;
      }
      if (ladder.shed_enter > 0 && depth >= ladder.shed_enter) {
        tripped = DegradationMode::kShed;
      }
      if (tripped > health) {
        set_health(tripped);
      } else if (health == DegradationMode::kShed &&
                 depth <= ladder.shed_exit) {
        set_health(ladder.defer_enter > 0 ? DegradationMode::kDefer
                                          : DegradationMode::kFull);
      } else if (health == DegradationMode::kDefer &&
                 depth <= ladder.defer_exit) {
        set_health(DegradationMode::kFull);
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
    // it forever, so admission runs as on the full rung.
    const bool admit = health == DegradationMode::kFull ||
                       (inflight.empty() && next_arrival >= requests.size());

    // 3. One admission round over the queue, in service order.
    if (!pending.empty() && admit) {
      std::sort(pending.begin(), pending.end(), served_before);
      const AdmissionRound round = admission.decide(pending, ledger, now);
      ++report.admission_rounds;

      std::vector<char> resolved(pending.size(), 0);
      const auto reject = [&](std::size_t idx, RequestStatus status) {
        RequestRecord& rec = record(*pending[idx].request);
        rec.status = status;
        rec.completed = now;
        rec.defers = pending[idx].defers;
        rec.degradation = health;
        resolved[idx] = 1;
      };
      for (const auto& [idx, status] : round.rejected) reject(idx, status);

      // 4. Run each admitted request as one job: plan on the borrowed
      // working graph, then (for a feasible plan) execute. 5. Commit its
      // result; all ledger and record mutations happen here, on the
      // dispatcher, in round order.
      for (const std::size_t idx : round.singles) {
        const PendingRequest& p = pending[idx];
        const UpdateRequest& r = *p.request;
        SingleJob job;
        single_job(*work_, base_, p, opts_, now, &job);
        RequestRecord& rec = record(r);
        if (!job.plan.feasible) {
          // The plan read only the request and its own reservation, and
          // neither changes between rounds, so no later round could plan it.
          ledger.release(p.footprint);
          reject(idx, RequestStatus::kRejectedInfeasible);
          rec.message = job.plan.message;
          continue;
        }
        rec.admitted = now;
        rec.defers = p.defers;
        rec.plan_span = job.plan.schedule.step_span();
        rec.plan_verified = job.plan.verified;
        rec.degradation = health;
        rec.violations += job.plan.violations;
        const ExecResult& exec = job.exec;
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
          rec.run_verified = job.plan.verified;
          duration = opts_.dispatch_lead + rec.plan_span * opts_.step_unit;
        }
        const sim::SimTime due = quantize_up(now + std::max<sim::SimTime>(
                                                       duration, 1));
        rec.completed = due;
        // Virtual (simulated) latency: a function of the deterministic
        // epoch dispatch alone, so it replays bit-identically — deliberately
        // not a _wall_us metric.
        obs::observe("service.request_latency_us", due - r.arrival);
        inflight.emplace(std::make_pair(due, admit_seq++), p.footprint);
        resolved[idx] = 1;
      }

      std::vector<PendingRequest> survivors;
      survivors.reserve(pending.size());
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (resolved[i]) continue;
        PendingRequest p = std::move(pending[i]);
        ++p.defers;  // spent one more round in the queue
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
  }
  return report;
}

}  // namespace chronus::service
