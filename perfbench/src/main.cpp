// chronus_perfbench: the repository benchmark (perfbench/README.md).
//
//   chronus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Serving workloads replay seeded waves through rpc::Server over loopback;
// fig10_6k plans §V.B instances in process. The untraced run (--trace 0)
// prints the end-to-end metrics, the traced run (--trace 1) the per-layer
// ones. Every output is checked; the last stdout line is one JSON object
// {correct, attempted, failed, metrics}, and the exit code is non-zero
// when any check fails.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "rpc/server.hpp"
#include "rpc/wire.hpp"
#include "service/service.hpp"
#include "stats.hpp"
#include "wave_client.hpp"
#include "workloads.hpp"

namespace chronus::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Pool workers of the server: the client, reactor and dispatcher threads
/// need the fourth core of the reference machine.
constexpr int kServerWorkers = 3;
/// Set-ups per untraced serving run; setup_s is their median. One takes a
/// fraction of a millisecond, so many are needed for a steady median.
constexpr int kSetupRepeats = 500;
/// Step length the service gives one schedule step (ServiceOptions
/// default), used to express fig10_6k update times in virtual seconds.
constexpr double kStepSeconds = 0.05;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      continue;
    }
    if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else {
      return false;
    }
    if (end == nullptr || *end != '\0' || value.empty()) return false;
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

/// Failed operations and the first few reasons. A failure of the run
/// itself (transport, round structure) is noted without counting a request.
struct Failures {
  std::uint64_t count = 0;
  std::vector<std::string> reasons;

  void add(const std::string& why) {
    ++count;
    note(why);
  }
  void note(const std::string& why) {
    if (reasons.size() < 5) reasons.push_back(why);
  }
};

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

rpc::ServerOptions server_options(const WorkloadSpec& spec) {
  rpc::ServerOptions o;
  const auto wave = static_cast<std::size_t>(spec.wave_size);
  o.intake_capacity = 4 * wave;   // above the wave: no deferred replies
  o.round_trigger_depth = wave;   // exactly one planning round per wave
  o.service.workers = kServerWorkers;
  return o;
}

/// Counts a wave's failed requests: no record, a transport or protocol
/// error, status `failed`, a verifier violation, `completed` without both
/// verdicts, or a completion that spills into the next wave's window.
void check_wave(const std::vector<service::UpdateRequest>& wave,
                const WaveResult& wr, std::size_t g, Failures* f) {
  const sim::SimTime window_end = wave_start(g + 1);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const rpc::WireRecord& rec = wr.records[i];
    const std::string id = "request " + std::to_string(wave[i].id);
    if (rec.status.empty()) {
      f->add(id + ": no record" + (wr.error.empty() ? "" : " (" + wr.error + ")"));
    } else if (rec.status == "failed") {
      f->add(id + ": failed: " + rec.message);
    } else if (rec.violations != 0) {
      f->add(id + ": " + std::to_string(rec.violations) + " verifier violations");
    } else if (rec.status == "completed" &&
               !(rec.plan_verified && rec.run_verified)) {
      f->add(id + ": completed without plan and run verdicts");
    } else if (rec.arrival != wave[i].arrival || rec.completed >= window_end) {
      f->add(id + ": record outside its wave's virtual window");
    }
  }
}

/// One closed-loop replay through a fresh rpc::Server.
struct WireReplay {
  std::vector<double> setup_s;
  std::size_t waves = 0;
  std::uint64_t requests = 0;
  std::uint64_t records = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double pass_rss_mib = 0.0;  ///< VmHWM after set-up and one full pass
  std::vector<double> latency_ms;
  std::vector<rpc::WireRecord> pass_records;  ///< first pass, wave order
  std::vector<rpc::WireRecord> all_records;   ///< when keep_records
  Failures failures;
};

struct ReplayPlan {
  int setups = 1;
  double seconds = 0.0;        ///< replay at least this long
  std::size_t min_waves = 0;   ///< and at least this many waves,
  std::size_t exact_waves = 0; ///< unless exactly this many (when > 0)
  bool keep_records = false;
};

/// Set-up, timed `plan.setups` times: construct and start an rpc::Server on
/// the workload topology, connect and handshake every client connection.
/// Then the closed-loop wave replay on the last set-up.
WireReplay replay_wire(const ServingInput& in, const WorkloadSpec& spec,
                       const ReplayPlan& plan) {
  WireReplay rep;
  const rpc::ServerOptions so = server_options(spec);
  const auto fail = [&rep](const std::string& why) { rep.failures.note(why); };
  std::unique_ptr<rpc::Server> server;
  std::unique_ptr<WaveClient> client;
  for (int s = 0; s < plan.setups; ++s) {
    if (client) {
      if (const std::string err = client->finish(); !err.empty()) fail(err);
      client.reset();
      server->join();
    }
    CHRONUS_SPAN("perfbench.server_start");
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<rpc::Server>(in.graph, so);
    server->start();
    client = std::make_unique<WaveClient>(in.graph, server->port(), spec.codec,
                                          static_cast<std::size_t>(spec.connections));
    const std::string err = client->connect();
    rep.setup_s.push_back(seconds_since(t0));
    if (!err.empty()) {
      fail("handshake: " + err);
      return rep;
    }
  }

  const std::size_t pass = in.waves.size();
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t g = 0;; ++g) {
    if (plan.exact_waves > 0 ? g >= plan.exact_waves
                             : g >= plan.min_waves &&
                                   seconds_since(t0) >= plan.seconds) {
      break;
    }
    const std::vector<service::UpdateRequest> wave = wave_at(in, g);
    WaveResult wr;
    {
      CHRONUS_SPAN("perfbench.wave");
      wr = client->run_wave(wave);
    }
    rep.waves = g + 1;
    rep.requests += wave.size();
    check_wave(wave, wr, g, &rep.failures);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      if (wr.records[i].status.empty()) continue;
      ++rep.records;
      rep.latency_ms.push_back(wr.latency_ms[i]);
    }
    if (g < pass) {
      rep.pass_records.insert(rep.pass_records.end(), wr.records.begin(),
                              wr.records.end());
      if (g + 1 == pass) rep.pass_rss_mib = peak_rss_mib();
    }
    if (plan.keep_records) {
      rep.all_records.insert(rep.all_records.end(), wr.records.begin(),
                             wr.records.end());
    }
    if (!wr.error.empty()) {
      fail("wave " + std::to_string(g) + ": " + wr.error);
      return rep;
    }
  }
  rep.wall_s = seconds_since(t0);
  rep.cpu_s = process_cpu_seconds() - cpu0;

  if (const std::string err = client->finish(); !err.empty()) fail(err);
  client.reset();
  server->join();
  const rpc::ServerStats st = server->stats();
  if (st.rounds != rep.waves || st.deferred != 0 || st.rejected != 0 ||
      st.protocol_errors != 0) {
    fail("server ran " + std::to_string(st.rounds) + " rounds for " +
         std::to_string(rep.waves) + " waves (deferred " +
         std::to_string(st.deferred) + ", rejected " +
         std::to_string(st.rejected) + ", protocol errors " +
         std::to_string(st.protocol_errors) + ")");
  }
  return rep;
}

/// The deterministic outcome metrics of a first pass: completed share, mean
/// update steps and p95 virtual latency of the completed requests.
void add_outcome_metrics(const std::vector<rpc::WireRecord>& pass,
                         Result* res) {
  std::vector<double> steps, vlat;
  for (const rpc::WireRecord& r : pass) {
    if (r.status != "completed") continue;
    steps.push_back(static_cast<double>(r.plan_span));
    vlat.push_back(static_cast<double>(r.completed - r.arrival) /
                   static_cast<double>(sim::kSecond));
  }
  res->add("completed_share",
           pass.empty() ? 0.0
                        : static_cast<double>(steps.size()) /
                              static_cast<double>(pass.size()),
           "ratio");
  res->add("update_steps_mean", mean(steps), "steps");
  res->add("virtual_latency_p95_s", percentile(vlat, 95.0), "virtual_s");
}

void add_latency_metrics(const std::vector<double>& latency_ms,
                         const WorkloadSpec& spec, Result* res) {
  res->add("latency_p50_ms", percentile(latency_ms, 50.0), "ms");
  res->add("latency_tail_ms", percentile(latency_ms, spec.tail_percentile),
           "ms");
  std::printf("# latency_tail_ms = p%g of %zu samples (%zu beyond it)\n",
              spec.tail_percentile, latency_ms.size(),
              samples_beyond(latency_ms.size(), spec.tail_percentile));
}

void report_failures(const Failures& f, Result* res) {
  res->failed += f.count;
  if (f.count > 0 || !f.reasons.empty()) res->correct = false;
  for (const std::string& why : f.reasons) {
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }
}

Result run_serving_untraced(const WorkloadSpec& spec, const ServingInput& in,
                            const Args& args) {
  const WireReplay rep = replay_wire(
      in, spec,
      {.setups = kSetupRepeats, .seconds = args.seconds, .min_waves = in.waves.size()});
  Result res;
  res.attempted = rep.requests;
  report_failures(rep.failures, &res);
  std::printf("# %s seed=%llu: %zu waves, %llu requests in %.3f s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              rep.waves, static_cast<unsigned long long>(rep.requests),
              rep.wall_s);
  res.add("setup_s", percentile(rep.setup_s, 50.0), "s");
  res.add("throughput_rps",
          rep.wall_s > 0.0 ? static_cast<double>(rep.records) / rep.wall_s : 0.0,
          "req/s");
  add_latency_metrics(rep.latency_ms, spec, &res);
  res.add("cpu_ms_per_request",
          rep.requests > 0
              ? 1000.0 * rep.cpu_s / static_cast<double>(rep.requests)
              : 0.0,
          "ms");
  res.add("peak_rss_mb", rep.pass_rss_mib, "MiB");
  add_outcome_metrics(rep.pass_records, &res);
  return res;
}

/// Compares wire records with rpc::to_wire of an in-process report of the
/// same wave; every difference is a failed request.
void compare_records(const std::vector<rpc::WireRecord>& wire,
                     std::size_t offset, const service::ServiceReport& rep,
                     const char* what, Failures* f) {
  for (std::size_t i = 0; i < rep.records.size(); ++i) {
    if (offset + i >= wire.size() ||
        !(wire[offset + i] == rpc::to_wire(rep.records[i]))) {
      f->add("request " + std::to_string(rep.records[i].id) + ": wire record " +
             "differs from the " + what + " replay");
    }
  }
}

/// Replays `waves` waves in process through one UpdateService (as the
/// server's planner does, one run per wave) and checks each report against
/// the wire records. Returns the wall time in seconds.
double replay_in_process(const ServingInput& in, const WorkloadSpec& spec,
                         std::size_t waves, int workers,
                         const std::vector<rpc::WireRecord>& wire,
                         Failures* f) {
  service::ServiceOptions opts = server_options(spec).service;
  opts.workers = workers;
  service::UpdateService svc(in.graph, opts);
  std::vector<service::ServiceReport> reports;
  reports.reserve(waves);
  const Clock::time_point t0 = Clock::now();
  {
    CHRONUS_SPAN("perfbench.inprocess_replay");
    for (std::size_t g = 0; g < waves; ++g) reports.push_back(svc.run(wave_at(in, g)));
  }
  const double wall = seconds_since(t0);
  const std::string what = std::to_string(workers) + "-worker in-process";
  std::size_t offset = 0;
  for (const service::ServiceReport& rep : reports) {
    compare_records(wire, offset, rep, what.c_str(), f);
    offset += rep.records.size();
  }
  return wall;
}

Result run_serving_traced(const WorkloadSpec& spec, const ServingInput& in,
                          const Args& args) {
  // (a) Untraced wire replay for a third of the budget: fixes the waves
  // every traced phase replays and the untraced wall time they compare to.
  const WireReplay plain = replay_wire(
      in, spec,
      {.seconds = args.seconds / 3.0, .min_waves = 1, .keep_records = true});
  const std::size_t waves = plain.waves;

  // (b) The same waves over the wire with the obs registry installed.
  obs::MetricsRegistry wire_reg;
  WireReplay traced;
  {
    const obs::ScopedMetrics scope(wire_reg);
    traced = replay_wire(in, spec, {.exact_waves = waves, .keep_records = true});
  }

  Failures checks;
  // (c) In process with the server's worker count, and (d) with one
  // worker: the same records must come out, and the one-worker spans
  // separate the dispatcher from the jobs.
  obs::MetricsRegistry inproc_reg, single_reg;
  double inproc_wall = 0.0;
  {
    const obs::ScopedMetrics scope(inproc_reg);
    inproc_wall = replay_in_process(in, spec, waves, kServerWorkers,
                                    traced.all_records, &checks);
  }
  {
    const obs::ScopedMetrics scope(single_reg);
    (void)replay_in_process(in, spec, waves, 1, traced.all_records, &checks);
  }
  for (std::size_t i = 0; i < plain.all_records.size(); ++i) {
    if (i >= traced.all_records.size() ||
        !(plain.all_records[i] == traced.all_records[i])) {
      checks.add("request " + std::to_string(plain.all_records[i].id) +
                 ": traced and untraced wire records differ");
    }
  }

  // (e) Codec replay over the run's submit and record frames, (f) the
  // per-request instance build over one pass.
  obs::MetricsRegistry local_reg;
  double codec_us = 0.0;
  BuildCost build;
  {
    const obs::ScopedMetrics scope(local_reg);
    std::vector<rpc::Message> frames;
    std::vector<service::UpdateRequest> pass_requests;
    for (std::size_t g = 0; g < waves; ++g) {
      for (service::UpdateRequest& r : wave_at(in, g)) {
        rpc::Message m;
        m.type = rpc::MsgType::kSubmit;
        m.submit = rpc::to_wire(in.graph, r);
        frames.push_back(std::move(m));
        if (g < in.waves.size()) pass_requests.push_back(std::move(r));
      }
    }
    for (const rpc::WireRecord& rec : traced.all_records) {
      rpc::Message m;
      m.type = rpc::MsgType::kRecord;
      m.record = rec;
      frames.push_back(std::move(m));
    }
    codec_us = codec_us_per_frame(spec.codec, frames);
    if (codec_us < 0.0) checks.add("a frame did not decode back to itself");
    build = build_cost(in.graph, pass_requests);
  }

  Result res;
  res.attempted = plain.requests + traced.requests;
  report_failures(plain.failures, &res);
  report_failures(traced.failures, &res);
  report_failures(checks, &res);

  const SpanTable wire(wire_reg.snapshot());
  const SpanTable single(single_reg.snapshot());
  const double n = static_cast<double>(std::max<std::uint64_t>(traced.requests, 1));
  std::printf("# %s seed=%llu traced: %zu waves, %llu requests; wire %.3f s "
              "traced, %.3f s untraced, in-process %.3f s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              waves, static_cast<unsigned long long>(traced.requests),
              traced.wall_s, plain.wall_s, inproc_wall);
  res.add("rpc.front_end_ms", 1000.0 * (traced.wall_s - inproc_wall) / n, "ms/req");
  res.add("rpc.codec_us_per_frame", codec_us, "us/frame");
  res.add("service.dispatch_ms",
          (single.total_named_ms("service.run") -
           single.total_named_ms("workerpool.job")) / n,
          "ms/req");
  res.add("service.deferrals_per_request",
          ratio(wire.counter("admission.deferrals"), traced.requests), "count/req");
  res.add("service.jobs_per_round",
          ratio(wire.counter("workerpool.jobs"), wire.counter("admission.rounds")),
          "jobs/round");
  res.add("service.job_self_ms", wire.self_ms("workerpool.job") / n, "ms/req");
  res.add("net.instance_build_us", build.instance_build_us, "us/req");
  res.add("core.greedy_ms", wire.total_named_ms("greedy.schedule") / n, "ms/req");
  res.add("core.greedy_infeasible_share",
          ratio(wire.counter("greedy.infeasible"), wire.counter("greedy.calls")),
          "ratio");
  res.add("core.dep_rebuilds",
          ratio(wire.counter("greedy.dep_rebuilds"), wire.counter("greedy.calls")),
          "count/call");
  res.add("core.dependency_us", build.dependency_us, "us/call");
  res.add("core.joint_success_share",
          ratio(wire.counter("service.joint_batches"),
                wire.counter("admission.joint_groups")),
          "ratio");
  res.add("timenet.plan_verify_ms",
          wire.total_ms("workerpool.job.verifier.transitions") / n, "ms/req");
  res.add("timenet.posthoc_verify_ms",
          wire.total_ms("workerpool.job.executor.run_timed.verifier.transitions") / n,
          "ms/req");
  res.add("timenet.classes_traced",
          ratio(wire.counter("verifier.classes_traced"), traced.requests),
          "count/req");
  res.add("sim.exec_ms", wire.self_ms("workerpool.job.executor.run_timed") / n,
          "ms/req");
  res.add("obs.tracing_overhead_pct",
          plain.wall_s > 0.0 ? 100.0 * (traced.wall_s / plain.wall_s - 1.0) : 0.0,
          "%");
  return res;
}

core::GreedyOptions fig10_options() {
  core::GreedyOptions o;
  o.guard_with_verifier = false;  // the paper's Algorithm 2
  o.force_complete = true;
  o.record_steps = false;
  return o;
}

struct PlanReplay {
  std::size_t calls = 0;
  double plan_s = 0.0;  ///< summed wall time of the greedy calls
  double cpu_s = 0.0;   ///< summed process CPU time of the greedy calls
  double first_rss_mib = 0.0;  ///< VmHWM after the first spec.instances calls
  /// Per instance: the work before planning, rebuilding the instance from
  /// its paths and the first dependency pass on its full pending set.
  std::vector<double> setup_s;
  double build_us = 0.0;       ///< summed instance rebuilds
  double dependency_us = 0.0;  ///< summed first dependency passes
  std::vector<double> latency_ms;
  std::vector<core::ScheduleResult> first;  ///< plans of the first instances
  Failures failures;
};

/// Plans fresh instances 0, 1, 2, ... of the seed's list, at least
/// spec.instances of them, until `seconds` have passed (or exactly
/// `exact_calls` when > 0). Generating an instance counts in no metric.
PlanReplay replay_planner(const WorkloadSpec& spec, std::uint64_t seed,
                          double seconds, std::size_t exact_calls) {
  PlanReplay rep;
  const auto first = static_cast<std::size_t>(spec.instances);
  const core::GreedyOptions opts = fig10_options();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (exact_calls > 0 ? i >= exact_calls
                        : i >= first && seconds_since(t0) >= seconds) {
      break;
    }
    const net::UpdateInstance inst = make_fig10_instance(seed, i);
    service::UpdateRequest r;
    r.p_init = inst.p_init();
    r.p_fin = inst.p_fin();
    r.demand = inst.demand();
    const BuildCost setup = build_cost(inst.graph(), {r});
    rep.build_us += setup.instance_build_us;
    rep.dependency_us += setup.dependency_us;
    rep.setup_s.push_back(1e-6 * (setup.instance_build_us + setup.dependency_us));

    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t1 = Clock::now();
    core::ScheduleResult plan = core::greedy_schedule(inst, opts);
    const double wall = seconds_since(t1);
    rep.cpu_s += process_cpu_seconds() - cpu0;
    rep.plan_s += wall;
    rep.latency_ms.push_back(1000.0 * wall);
    rep.calls = i + 1;
    if (plan.status == core::ScheduleStatus::kInfeasible ||
        plan.schedule.size() != inst.switches_to_update().size()) {
      rep.failures.add("instance " + std::to_string(i) +
                       ": plan does not update every switch once");
    }
    if (i < first) {
      rep.first.push_back(std::move(plan));
      if (i + 1 == first) rep.first_rss_mib = peak_rss_mib();
    }
  }
  return rep;
}

Result run_planner(const WorkloadSpec& spec, const Args& args) {
  Result res;
  if (!args.trace) {
    const PlanReplay rep = replay_planner(spec, args.seed, args.seconds, 0);
    res.attempted = rep.calls;
    report_failures(rep.failures, &res);
    std::printf("# %s seed=%llu: %zu greedy calls, %.3f s planning\n",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                rep.calls, rep.plan_s);
    res.add("setup_s", percentile(rep.setup_s, 50.0), "s");
    res.add("throughput_rps", static_cast<double>(rep.calls) / rep.plan_s,
            "req/s");
    add_latency_metrics(rep.latency_ms, spec, &res);
    res.add("cpu_ms_per_request",
            1000.0 * rep.cpu_s / static_cast<double>(rep.calls), "ms");
    res.add("peak_rss_mb", rep.first_rss_mib, "MiB");
    // No request waits here; the virtual latency is each switch's wait for
    // its update: steps until its update instant, at the service's step.
    std::vector<double> steps, vlat;
    std::size_t feasible = 0;
    for (const core::ScheduleResult& plan : rep.first) {
      if (plan.feasible()) ++feasible;
      steps.push_back(static_cast<double>(plan.schedule.step_span()));
      const timenet::TimePoint t0 = plan.schedule.first_time();
      for (const auto& [v, t] : plan.schedule.entries()) {
        vlat.push_back(static_cast<double>(t - t0 + 1) * kStepSeconds);
      }
    }
    res.add("completed_share",
            static_cast<double>(feasible) / static_cast<double>(rep.first.size()),
            "ratio");
    res.add("update_steps_mean", mean(steps), "steps");
    res.add("virtual_latency_p95_s", percentile(vlat, 95.0), "virtual_s");
    return res;
  }

  const PlanReplay plain = replay_planner(spec, args.seed, args.seconds / 3.0, 0);
  obs::MetricsRegistry reg;
  PlanReplay traced;
  {
    const obs::ScopedMetrics scope(reg);
    traced = replay_planner(spec, args.seed, 0.0, plain.calls);
  }
  res.attempted = plain.calls + traced.calls;
  report_failures(plain.failures, &res);
  report_failures(traced.failures, &res);
  const SpanTable spans(reg.snapshot());
  const double calls = static_cast<double>(traced.calls);
  std::printf("# %s seed=%llu traced: %zu greedy calls, %.3f s traced, "
              "%.3f s untraced\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              traced.calls, traced.plan_s, plain.plan_s);
  // The serving layers do no work here; their metrics read 0.
  res.add("rpc.front_end_ms", 0.0, "ms/req");
  res.add("rpc.codec_us_per_frame", 0.0, "us/frame");
  res.add("service.dispatch_ms", 0.0, "ms/req");
  res.add("service.deferrals_per_request", 0.0, "count/req");
  res.add("service.jobs_per_round", 0.0, "jobs/round");
  res.add("service.job_self_ms", 0.0, "ms/req");
  res.add("net.instance_build_us", traced.build_us / calls, "us/req");
  res.add("core.greedy_ms", spans.total_named_ms("greedy.schedule") / calls, "ms/req");
  res.add("core.greedy_infeasible_share",
          ratio(spans.counter("greedy.infeasible"), spans.counter("greedy.calls")),
          "ratio");
  res.add("core.dep_rebuilds",
          ratio(spans.counter("greedy.dep_rebuilds"), spans.counter("greedy.calls")),
          "count/call");
  res.add("core.dependency_us", traced.dependency_us / calls, "us/call");
  res.add("core.joint_success_share", 0.0, "ratio");
  res.add("timenet.plan_verify_ms", 0.0, "ms/req");
  res.add("timenet.posthoc_verify_ms", 0.0, "ms/req");
  res.add("timenet.classes_traced",
          static_cast<double>(spans.counter("verifier.classes_traced")) / calls,
          "count/req");
  res.add("sim.exec_ms", 0.0, "ms/req");
  res.add("obs.tracing_overhead_pct",
          100.0 * (traced.plan_s / plain.plan_s - 1.0), "%");
  return res;
}

Result run(const WorkloadSpec& spec, const Args& args) {
  if (!spec.serving) return run_planner(spec, args);
  const ServingInput in = make_serving_input(spec, args.seed);
  return args.trace ? run_serving_traced(spec, in, args)
                    : run_serving_untraced(spec, in, args);
}

}  // namespace
}  // namespace chronus::perfbench

int main(int argc, char** argv) {
  using namespace chronus::perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: chronus_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  try {
    spec = &workload_spec(args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  Result res;
  try {
    res = run(*spec, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  for (Result::Metric& m : res.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      res.correct = false;
      m.value = 0.0;
    }
  }
  std::printf("%s\n", res.to_json().c_str());
  return res.correct ? 0 : 1;
}
