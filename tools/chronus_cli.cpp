// chronus_cli — drive the library from the command line.
//
//   chronus_cli example --name=fig1 > fig1.inst
//   chronus_cli schedule --instance=fig1.inst [--algo=greedy] > fig1.sched
//   chronus_cli schedule-flows --instance=flows.inst [--mode=joint|seq]
//   chronus_cli verify --instance=fig1.inst --schedule=fig1.sched
//   chronus_cli or-plan --instance=fig1.inst
//   chronus_cli dot --instance=fig1.inst [--schedule=fig1.sched]
//   chronus_cli trace --requests=200 [--rate=40] [--conflict=0.5] > w.trace
//   chronus_cli serve --trace=w.trace [--json=report.json]
//                     [--metrics=metrics.json]
//                     [--listen=PORT] [--codec=binary|json] [--connections=N]
//                     [--intake-cap=N] [--trigger-depth=N]
//
// Algorithms for `schedule`: greedy (Algorithm 2, verifier-guarded),
// pure (paper-literal Algorithm 2), chain (longest-chain-first), restart
// (best of N randomized restarts), sweep (Algorithm 1 witness), opt
// (branch-and-bound under --timeout seconds).
//
// `serve` drives the online update service (src/service) over a request
// trace: admission, ledger reservation, planning and timed execution;
// exits non-zero if any accepted plan failed re-verification.
// With --listen=PORT (0 = ephemeral) the trace is instead served through
// the rpc socket front-end (src/rpc): an rpc::Server is started on
// loopback and the trace is replayed into it by the multi-connection load
// driver, printing one report per planning round. --intake-cap is the
// intake queue depth at which submits are deferred; --trigger-depth the
// depth that fires a round.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/feasibility_tree.hpp"
#include "core/multi_flow.hpp"
#include "core/heuristics.hpp"
#include "io/dot.hpp"
#include "io/instance_io.hpp"
#include "io/trace_io.hpp"
#include "net/generators.hpp"
#include "obs/metrics.hpp"
#include "opt/mutp_bnb.hpp"
#include "opt/order_bnb.hpp"
#include "rpc/load_driver.hpp"
#include "rpc/server.hpp"
#include "service/workload.hpp"
#include "timenet/verifier.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"

using namespace chronus;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: chronus_cli <command> [--flags]\n"
               "  example  --name=fig1|random [--n=N] [--seed=N]\n"
               "  schedule --instance=FILE [--algo=greedy|pure|chain|restart|"
               "sweep|opt] [--timeout=SEC]\n"
               "  schedule-flows --instance=FILE [--mode=joint|seq]\n"
               "  verify   --instance=FILE --schedule=FILE\n"
               "  or-plan  --instance=FILE\n"
               "  dot      --instance=FILE [--schedule=FILE]\n"
               "  trace    [--requests=N] [--rate=HZ] [--conflict=P]"
               " [--pairs=N] [--rescue=N] [--seed=N] [--out=FILE]\n"
               "           [--metrics=FILE]\n"
               "  serve    --trace=FILE [--epoch-ms=N] [--step-ms=N]"
               " [--seed=N]\n"
               "           [--max-defers=N] [--plan-only] [--json=FILE]"
               " [--metrics=FILE]\n"
               "           [--listen=PORT] [--codec=binary|json]"
               " [--connections=N] [--intake-cap=N]\n"
               "           [--trigger-depth=N]\n");
  return 2;
}

/// Each command reads every flag it takes before it does any work and
/// then calls this: a flag it never read (a typo, or another command's
/// flag) stops it with exit status 2 instead of being ignored.
int unknown_flags(const util::Cli& cli) {
  const std::vector<std::string> unused = cli.unused();
  if (unused.empty()) return 0;
  std::fprintf(stderr, "unknown flag: --%s\n", unused.front().c_str());
  return 2;
}

net::UpdateInstance load_instance(const std::string& path) {
  if (path.empty()) throw std::runtime_error("--instance is required");
  return io::read_instance_file(path);
}

int cmd_example(const util::Cli& cli) {
  const std::string name = cli.get("name", "fig1");
  net::RandomInstanceOptions opt;
  opt.n = static_cast<std::size_t>(cli.get_int("n", 10));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  if (int rc = unknown_flags(cli)) return rc;
  if (name == "fig1") {
    io::write_instance(std::cout, net::fig1_instance());
    return 0;
  }
  if (name == "random") {
    util::Rng rng(seed);
    io::write_instance(std::cout, net::random_instance(opt, rng));
    return 0;
  }
  std::fprintf(stderr, "unknown example: %s\n", name.c_str());
  return 2;
}

int report_schedule(const net::UpdateInstance& inst,
                    const timenet::UpdateSchedule& sched, bool feasible,
                    const std::string& message) {
  if (!feasible) {
    std::fprintf(stderr, "no feasible schedule: %s\n", message.c_str());
    return 1;
  }
  io::write_schedule(std::cout, inst, sched);
  const auto report = timenet::verify_transition(inst, sched);
  std::fprintf(stderr, "# %zu switches in %lld step(s); verification: %s\n",
               sched.size(), static_cast<long long>(sched.step_span()),
               report.ok() ? "clean" : report.to_string(inst.graph()).c_str());
  return report.ok() ? 0 : 1;
}

int cmd_schedule(const util::Cli& cli) {
  const std::string path = cli.get("instance", "");
  const std::string algo = cli.get("algo", "greedy");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double timeout = cli.get_double("timeout", 10.0);
  if (int rc = unknown_flags(cli)) return rc;
  const auto inst = load_instance(path);
  if (algo == "greedy" || algo == "pure") {
    core::GreedyOptions opts;
    opts.guard_with_verifier = algo == "greedy";
    const auto res = core::greedy_schedule(inst, opts);
    return report_schedule(inst, res.schedule, res.feasible(), res.message);
  }
  if (algo == "chain") {
    const auto res = core::chain_priority_schedule(inst);
    return report_schedule(inst, res.schedule, res.feasible(), res.message);
  }
  if (algo == "restart") {
    util::Rng rng(seed);
    const auto res = core::randomized_restart_schedule(inst, rng);
    return report_schedule(inst, res.schedule, res.feasible(), res.message);
  }
  if (algo == "sweep") {
    const auto res = core::tree_feasibility_check(inst);
    return report_schedule(inst, res.witness, res.feasible, res.message);
  }
  if (algo == "opt") {
    opt::MutpOptions opts;
    opts.timeout_sec = timeout;
    const auto res = opt::solve_mutp(inst, opts);
    if (res.feasible() && !res.proved_optimal) {
      std::fprintf(stderr, "# warning: optimality not proved (%s)\n",
                   res.message.c_str());
    }
    return report_schedule(inst, res.schedule, res.feasible(), res.message);
  }
  std::fprintf(stderr, "unknown algorithm: %s\n", algo.c_str());
  return 2;
}

int cmd_schedule_flows(const util::Cli& cli) {
  const std::string path = cli.get("instance", "");
  const std::string mode = cli.get("mode", "joint");
  if (int rc = unknown_flags(cli)) return rc;
  if (path.empty()) throw std::runtime_error("--instance is required");
  const auto flows = io::read_flows_file(path);
  const auto res = mode == "seq"
                       ? core::schedule_flows_sequentially(flows)
                       : core::schedule_flows_jointly(flows);
  if (!res.feasible()) {
    std::fprintf(stderr, "no feasible multi-flow plan: %s\n",
                 res.message.c_str());
    return 1;
  }
  for (std::size_t k = 0; k < flows.size(); ++k) {
    std::printf("# flow %zu\n", k);
    io::write_schedule(std::cout, flows[k], res.schedules[k]);
  }
  std::fprintf(stderr, "# %zu flows, %s composition, total span %lld\n",
               flows.size(), mode.c_str(),
               static_cast<long long>(res.total_span));
  return 0;
}

int cmd_verify(const util::Cli& cli) {
  const std::string path = cli.get("instance", "");
  const std::string spath = cli.get("schedule", "");
  if (int rc = unknown_flags(cli)) return rc;
  const auto inst = load_instance(path);
  if (spath.empty()) throw std::runtime_error("--schedule is required");
  std::ifstream in(spath);
  if (!in) throw std::runtime_error("cannot open " + spath);
  const auto sched = io::read_schedule(in, inst);
  const auto report = timenet::verify_transition(inst, sched);
  std::printf("%s", report.to_string(inst.graph()).c_str());
  return report.ok() ? 0 : 1;
}

int cmd_or_plan(const util::Cli& cli) {
  const std::string path = cli.get("instance", "");
  if (int rc = unknown_flags(cli)) return rc;
  const auto inst = load_instance(path);
  const auto plan = opt::solve_order_replacement(inst);
  if (!plan.feasible) {
    std::fprintf(stderr, "no loop-free round sequence: %s\n",
                 plan.message.c_str());
    return 1;
  }
  for (std::size_t r = 0; r < plan.rounds.size(); ++r) {
    std::printf("round %zu:", r + 1);
    for (const auto v : plan.rounds[r]) {
      std::printf(" %s", inst.graph().name(v).c_str());
    }
    std::printf("\n");
  }
  std::fprintf(stderr, "# %zu round(s)%s\n", plan.round_count(),
               plan.proved_optimal ? ", round-minimal" : "");
  return 0;
}

int cmd_trace(const util::Cli& cli) {
  const std::string metrics_path = cli.get("metrics", "");
  service::WorkloadOptions opt;
  opt.requests = static_cast<int>(cli.get_int("requests", 200));
  opt.arrival_rate_hz = cli.get_double("rate", 40.0);
  opt.conflict_density = cli.get_double("conflict", 0.5);
  opt.pairs = static_cast<int>(cli.get_int("pairs", 8));
  opt.oversize_prob = cli.get_double("oversize", 0.0);
  opt.rescue_sites = static_cast<int>(cli.get_int("rescue", 0));
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string out = cli.get("out", "");
  if (int rc = unknown_flags(cli)) return rc;
  const obs::MetricsSidecar metrics(metrics_path, "chronus_cli.trace");
  if (out.empty()) {
    io::write_trace(std::cout, service::make_workload(opt));
  } else {
    std::ofstream file(out);
    if (!file) throw std::runtime_error("cannot open " + out);
    io::write_trace(file, service::make_workload(opt));
  }
  return 0;
}

int cmd_serve(const util::Cli& cli) {
  const std::string metrics_path = cli.get("metrics", "");
  const std::string path = cli.get("trace", "");

  service::ServiceOptions opts;
  opts.epoch = cli.get_int("epoch-ms", 50) * sim::kMillisecond;
  opts.step_unit = cli.get_int("step-ms", 50) * sim::kMillisecond;
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opts.execute = !cli.get_bool("plan-only", false);
  opts.admission.max_defers =
      static_cast<int>(cli.get_int("max-defers", opts.admission.max_defers));
  const std::string json_path = cli.get("json", "");

  const long long listen_port = cli.get_int("listen", -1);
  rpc::ServerOptions sopts;
  sopts.intake_capacity =
      static_cast<std::size_t>(cli.get_int("intake-cap", 256));
  sopts.round_trigger_depth =
      static_cast<std::size_t>(cli.get_int("trigger-depth", 0));
  sopts.service = opts;
  rpc::LoadOptions lopts;
  lopts.codec = cli.get("codec", "binary") == "json" ? rpc::Codec::kJson
                                                     : rpc::Codec::kBinary;
  lopts.connections = static_cast<std::size_t>(cli.get_int("connections", 4));
  if (int rc = unknown_flags(cli)) return rc;

  const obs::MetricsSidecar metrics(metrics_path, "chronus_cli.serve");
  if (path.empty()) throw std::runtime_error("--trace is required");
  const service::ServiceTrace trace = io::read_trace_file(path);

  if (listen_port >= 0) {
    // Socket front-end: serve the request stream to ourselves over
    // loopback through the rpc server, exactly as a remote client would.
    sopts.port = static_cast<std::uint16_t>(listen_port);
    rpc::Server server(trace.graph, sopts);
    server.start();
    std::fprintf(stderr, "# listening on %s:%u\n", sopts.host.c_str(),
                 static_cast<unsigned>(server.port()));

    lopts.port = server.port();
    const rpc::LoadResult load =
        rpc::run_load(trace.graph, trace.requests, lopts);
    server.join();
    const rpc::ServerStats stats = server.stats();
    std::fprintf(stderr,
                 "# rpc: %llu session(s), %llu submit(s), %llu deferred, "
                 "%llu rejected, %llu round(s)\n",
                 static_cast<unsigned long long>(stats.sessions),
                 static_cast<unsigned long long>(stats.submits),
                 static_cast<unsigned long long>(stats.deferred),
                 static_cast<unsigned long long>(stats.rejected),
                 static_cast<unsigned long long>(stats.rounds));
    if (!load.ok) {
      std::fprintf(stderr, "# load driver failed: %s\n", load.error.c_str());
      return 1;
    }
    const auto rounds = server.round_reports();
    int violations = 0;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      std::printf("== round %zu ==\n%s", i + 1, rounds[i].to_string().c_str());
      violations += rounds[i].violations;
    }
    if (violations != 0) {
      std::fprintf(stderr, "# %d verifier violation(s)\n", violations);
      return 1;
    }
    return 0;
  }

  const service::ServiceReport report =
      service::UpdateService(trace.graph, opts).run(trace);
  std::printf("%s", report.to_string().c_str());

  if (!json_path.empty()) {
    util::JsonWriter json(json_path, "serve");
    json.meta("trace", path);
    json.meta("seed", static_cast<std::int64_t>(opts.seed));
    for (const service::RequestRecord& r : report.records) {
      json.begin_row();
      json.field("id", r.id);
      json.field("status", std::string(service::to_string(r.status)));
      json.field("arrival_us", r.arrival);
      json.field("admitted_us", r.admitted);
      json.field("completed_us", r.completed);
      json.field("defers", static_cast<std::int64_t>(r.defers));
      json.field("plan_span", r.plan_span);
      json.field("exec_duration_us", r.exec_duration);
      json.field("retries", static_cast<std::int64_t>(r.exec_retries));
      json.field("violations", static_cast<std::int64_t>(r.violations));
      json.end_row();
    }
  }
  if (report.violations != 0) {
    std::fprintf(stderr, "# %d verifier violation(s)\n", report.violations);
    return 1;
  }
  return 0;
}

int cmd_dot(const util::Cli& cli) {
  const std::string path = cli.get("instance", "");
  const std::string spath = cli.get("schedule", "");
  if (int rc = unknown_flags(cli)) return rc;
  const auto inst = load_instance(path);
  if (spath.empty()) {
    std::printf("%s", io::to_dot(inst).c_str());
    return 0;
  }
  std::ifstream in(spath);
  if (!in) throw std::runtime_error("cannot open " + spath);
  const auto sched = io::read_schedule(in, inst);
  std::printf("%s", io::to_dot(inst, &sched).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const util::Cli cli(argc - 1, argv + 1);
    if (command == "example") return cmd_example(cli);
    if (command == "schedule") return cmd_schedule(cli);
    if (command == "schedule-flows") return cmd_schedule_flows(cli);
    if (command == "verify") return cmd_verify(cli);
    if (command == "or-plan") return cmd_or_plan(cli);
    if (command == "trace") return cmd_trace(cli);
    if (command == "serve") return cmd_serve(cli);
    if (command == "dot") return cmd_dot(cli);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
