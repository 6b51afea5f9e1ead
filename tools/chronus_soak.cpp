// chronus_soak — the chaos soak driver: runs a declarative failure
// campaign (io/scenario_io.hpp) against the online update service and
// judges the outcome with the oracles the repo already trusts.
//
//   chronus_soak --scenario=storm.scn [--requests=N] [--rate=HZ]
//                [--pairs=N] [--conflict=P] [--rescue=N] [--seed=N]
//                [--epoch-ms=N] [--step-ms=N] [--budget-s=N]
//                [--slo-ms=N] [--greedy-enter=N --greedy-exit=N]
//                [--defer-enter=N --defer-exit=N]
//                [--shed-enter=N --shed-exit=N]
//                [--replay] [--minimize] [--json=FILE] [--metrics=FILE]
//                [--log=FILE]
//
// The campaign is fully determined by (--seed, scenario): the workload
// (surges included), every injected fault and every ladder transition
// replay bit-identically. Oracles, in order:
//
//  * the post-hoc transition verifier reported zero violations;
//  * the report is self-consistent (every request accounted for);
//  * with --replay, a second run from the same seed reproduces the
//    identical report digest (degradation-mode sequence included) and the
//    identical logical metrics slice;
//  * a quiet scenario with the ladder disabled is bit-identical to a
//    clean serve run of the same trace (no chaos attached at all).
//
// With --minimize, a failing campaign is greedily shrunk: phases are
// dropped one at a time while the failure persists and the minimal
// still-failing scenario is printed to stdout. Exit codes: 0 pass, 1
// oracle failure, 2 usage/setup error.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/scenario_io.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "service/workload.hpp"
#include "sim/chaos.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"

namespace {

using chronus::service::ServiceOptions;
using chronus::service::ServiceReport;
using chronus::service::ServiceTrace;
using chronus::service::UpdateService;
using chronus::service::WorkloadOptions;
using chronus::sim::ChaosScenario;

struct SoakConfig {
  WorkloadOptions workload;
  ServiceOptions service;
  chronus::sim::SimTime budget = 0;  ///< drop arrivals past this (0 = all)
};

struct Outcome {
  ServiceReport report;
  chronus::obs::MetricsSnapshot snapshot;  ///< full, wall metrics included
  chronus::obs::MetricsSnapshot logical;   ///< replay-deterministic slice
};

/// One full campaign: generate the trace under the scenario's surges, run
/// the service with the scenario attached, capture report and logical
/// metrics. Pure function of (config, scenario) — the replay oracle
/// depends on it.
Outcome run_campaign(const SoakConfig& cfg, const ChaosScenario* scenario) {
  WorkloadOptions wopt = cfg.workload;
  wopt.chaos = scenario;
  ServiceTrace trace = chronus::service::make_workload(wopt);
  if (cfg.budget > 0) {
    std::erase_if(trace.requests, [&](const auto& r) {
      return r.arrival > cfg.budget;
    });
  }

  ServiceOptions sopt = cfg.service;
  sopt.chaos = scenario;

  chronus::obs::MetricsRegistry reg;
  Outcome out;
  {
    const chronus::obs::ScopedMetrics scoped(reg);
    UpdateService svc(trace.graph, sopt);
    out.report = svc.run(trace);
  }
  out.snapshot = reg.snapshot();
  out.logical = out.snapshot.logical();
  return out;
}

/// The cheap oracle used both for the main verdict and as the --minimize
/// failure predicate. Returns an empty string on pass, else the reason.
std::string judge(const Outcome& out) {
  const ServiceReport& rep = out.report;
  if (rep.violations != 0) {
    return "post-hoc verifier reported " + std::to_string(rep.violations) +
           " violation(s)";
  }
  std::size_t accounted = rep.completed + rep.failed + rep.rejected();
  for (const auto& rec : rep.records) {
    if (rec.status == chronus::service::RequestStatus::kPending) {
      return "request " + std::to_string(rec.id) + " left pending";
    }
  }
  if (accounted != rep.total()) {
    return "report accounts for " + std::to_string(accounted) + " of " +
           std::to_string(rep.total()) + " requests";
  }
  return "";
}

void write_json(const std::string& path, const std::string& scenario_name,
                const SoakConfig& cfg, const Outcome& out) {
  chronus::util::JsonWriter json(path, "soak");
  json.meta("scenario", scenario_name);
  json.meta("seed", static_cast<std::int64_t>(cfg.workload.seed));
  json.meta("requests",
            static_cast<std::int64_t>(out.report.records.size()));
  for (const auto& r : out.report.records) {
    json.begin_row();
    json.field("id", r.id);
    json.field("status",
               std::string(chronus::service::to_string(r.status)));
    json.field("degradation",
               std::string(chronus::service::to_string(r.degradation)));
    json.field("arrival_us", r.arrival);
    json.field("completed_us", r.completed);
    json.field("faults", r.faults);
    json.field("retries", static_cast<std::int64_t>(r.exec_retries));
    json.field("violations", static_cast<std::int64_t>(r.violations));
    json.end_row();
  }
}

int soak_main(const chronus::util::Cli& cli) {
  const std::string scenario_path = cli.get("scenario", "");
  if (scenario_path.empty()) {
    std::fprintf(stderr, "error: --scenario is required\n");
    return 2;
  }
  ChaosScenario scenario = chronus::io::read_scenario_file(scenario_path);

  SoakConfig cfg;
  cfg.workload.requests = static_cast<int>(cli.get_int("requests", 60));
  cfg.workload.arrival_rate_hz = cli.get_double("rate", 30.0);
  cfg.workload.pairs = static_cast<int>(cli.get_int("pairs", 6));
  cfg.workload.conflict_density = cli.get_double("conflict", 0.4);
  cfg.workload.rescue_sites = static_cast<int>(cli.get_int("rescue", 0));
  cfg.workload.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  cfg.service.seed = cfg.workload.seed;
  cfg.service.epoch = cli.get_int("epoch-ms", 50) * chronus::sim::kMillisecond;
  cfg.service.step_unit =
      cli.get_int("step-ms", 50) * chronus::sim::kMillisecond;
  cfg.budget = cli.get_int("budget-s", 0) * chronus::sim::kSecond;

  auto& ladder = cfg.service.degradation;
  ladder.latency_slo = cli.get_int("slo-ms", 0) * chronus::sim::kMillisecond;
  ladder.greedy_enter = static_cast<std::size_t>(cli.get_int("greedy-enter", 0));
  ladder.greedy_exit = static_cast<std::size_t>(cli.get_int("greedy-exit", 0));
  ladder.defer_enter = static_cast<std::size_t>(cli.get_int("defer-enter", 0));
  ladder.defer_exit = static_cast<std::size_t>(cli.get_int("defer-exit", 0));
  ladder.shed_enter = static_cast<std::size_t>(cli.get_int("shed-enter", 0));
  ladder.shed_exit = static_cast<std::size_t>(cli.get_int("shed-exit", 0));

  const bool replay = cli.get_bool("replay", false);
  const bool minimize = cli.get_bool("minimize", false);
  const std::string json_path = cli.get("json", "");
  const std::string metrics_path = cli.get("metrics", "");
  const std::string log_path = cli.get("log", "");
  for (const std::string& flag : cli.unused()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", flag.c_str());
    return 2;
  }

  // The campaign itself; run_campaign installs its own registry, so the
  // sidecar file is written from its snapshot afterwards.
  const Outcome out = run_campaign(cfg, &scenario);
  if (!metrics_path.empty()) {
    chronus::util::JsonWriter json(metrics_path, "chronus_soak");
    json.meta("scenario", scenario.name);
    out.snapshot.write_json(json, /*mask_wall=*/false);
  }
  std::printf("scenario %s: %s", scenario.name.c_str(),
              out.report.to_string().c_str());
  if (!log_path.empty()) {
    std::ofstream log(log_path);
    if (!log) throw std::runtime_error("cannot open " + log_path);
    log << out.report.to_string();
  }
  if (!json_path.empty()) {
    write_json(json_path, scenario.name, cfg, out);
  }

  std::string verdict = judge(out);

  if (verdict.empty() && replay) {
    const Outcome again = run_campaign(cfg, &scenario);
    if (again.report.digest() != out.report.digest()) {
      verdict = "replay diverged: report digests differ";
    } else if (!(again.logical == out.logical)) {
      verdict = "replay diverged: logical metrics differ";
    } else {
      std::printf("replay: digest and logical metrics identical\n");
    }
  }

  if (verdict.empty() && scenario.quiet() && !ladder.enabled()) {
    // Zero-knob campaign: must be bit-identical to a clean serve run with
    // no scenario attached at all.
    const Outcome clean = run_campaign(cfg, nullptr);
    if (clean.report.digest() != out.report.digest()) {
      verdict = "quiet campaign diverged from the clean run";
    } else {
      std::printf("quiet campaign: bit-identical to the clean run\n");
    }
  }

  if (verdict.empty()) {
    std::printf("soak PASS\n");
    return 0;
  }
  std::fprintf(stderr, "soak FAIL: %s\n", verdict.c_str());

  if (minimize && !scenario.phases.empty()) {
    // Greedy shrink: drop phases one at a time while the failure holds.
    ChaosScenario minimal = scenario;
    std::size_t i = 0;
    while (i < minimal.phases.size() && minimal.phases.size() > 1) {
      ChaosScenario candidate = minimal;
      candidate.phases.erase(candidate.phases.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (!judge(run_campaign(cfg, &candidate)).empty()) {
        minimal = std::move(candidate);  // still fails without phase i
      } else {
        ++i;  // phase i is load-bearing, keep it
      }
    }
    std::fprintf(stderr, "# minimal failing scenario (%zu of %zu phases):\n",
                 minimal.phases.size(), scenario.phases.size());
    chronus::io::write_scenario(std::cout, minimal);
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const chronus::util::Cli cli(argc, argv);
    return soak_main(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
