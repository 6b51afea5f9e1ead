// Extension — service robustness under chaos campaigns (no paper
// counterpart; the paper assumes a faithful data plane, this bench measures
// how the online service degrades when the plane misbehaves).
//
// Sweeps chaos intensity (quiet / mild / storm, compiled programmatically
// from sim/chaos.hpp phases) crossed with the graceful-degradation ladder
// off and on, and reports per point: completions, sheds, watchdog
// cancellations, injected faults, executor retries, health transitions and
// p95 latency. The quiet row must show 0 violations; the mild/storm rows
// deliberately push past the resilient executor's absorption envelope, so
// their violations column charts where consistency starts to cost (the
// shipped soak scenarios in testdata/scenarios/ stay inside the envelope
// and are held to zero violations by `ctest -L chaos`).
//
//   ./bench/ext_chaos [--requests=N] [--seed=N] [--json=PATH]
//                     [--metrics=PATH]
#include "bench_common.hpp"

#include "service/service.hpp"
#include "service/workload.hpp"
#include "sim/chaos.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace chronus;

namespace {

/// The swept campaigns. Intensity 0 is the quiet control; the storm stacks
/// a drop/reject burst with a flap against a straggler/skew tail (kept in
/// separate phases — see testdata/scenarios/storm.scn for why).
sim::ChaosScenario make_scenario(int intensity) {
  sim::ChaosScenario s;
  s.seed = 21;
  if (intensity == 0) {
    s.name = "quiet";
    return s;
  }
  s.name = intensity == 1 ? "mild" : "storm";
  const double scale = intensity == 1 ? 0.5 : 1.0;

  sim::ChaosPhase burst;
  burst.name = "burst";
  burst.from = 0;
  burst.until = 2 * sim::kSecond;
  burst.drop_rate = 0.06 * scale;
  burst.reject_rate = 0.05 * scale;
  burst.arrival_surge = intensity == 1 ? 1.5 : 2.0;
  if (intensity > 1) {
    burst.flaps.push_back({/*sw=*/2, /*period=*/400 * sim::kMillisecond,
                           /*down=*/80 * sim::kMillisecond, /*offset=*/0});
  }

  sim::ChaosPhase tail;
  tail.name = "tail";
  tail.from = 2 * sim::kSecond;
  tail.until = 5 * sim::kSecond;
  tail.straggler_rate = 0.10 * scale;
  tail.straggler_multiplier = intensity == 1 ? 4.0 : 6.0;
  tail.skew_begin = 100;
  tail.skew_end = 400;

  s.phases = {burst, tail};
  s.validate();
  return s;
}

service::DegradationPolicy make_ladder() {
  service::DegradationPolicy p;
  p.latency_slo = 30 * sim::kSecond;
  p.greedy_enter = 6;
  p.greedy_exit = 3;
  p.defer_enter = 10;
  p.defer_exit = 5;
  p.shed_enter = 14;
  p.shed_exit = 8;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto requests = static_cast<int>(cli.get_int("requests", 60));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  auto json = bench::json_from_cli(cli, "ext_chaos");
  auto metrics = bench::metrics_from_cli(cli, "ext_chaos");
  bench::reject_unknown_flags(cli);
  if (json) {
    json->meta("requests", static_cast<std::int64_t>(requests));
    json->meta("seed", static_cast<std::int64_t>(seed));
  }

  bench::print_header("Extension", "update service under chaos campaigns");
  std::printf("%d requests per point, seed=%llu\n\n", requests,
              static_cast<unsigned long long>(seed));

  util::Table table({"scenario", "ladder", "done", "shed", "watchdog",
                     "faults", "retries", "health", "p95 ms", "violations"});
  for (const int intensity : {0, 1, 2}) {
    const sim::ChaosScenario scenario = make_scenario(intensity);
    for (const bool ladder : {false, true}) {
      service::WorkloadOptions wopt;
      wopt.requests = requests;
      wopt.arrival_rate_hz = 30.0;
      wopt.pairs = 6;
      wopt.conflict_density = 0.4;
      wopt.seed = seed;
      wopt.chaos = &scenario;
      const service::ServiceTrace trace = service::make_workload(wopt);

      service::ServiceOptions sopt;
      sopt.seed = seed;
      sopt.chaos = &scenario;
      if (ladder) sopt.degradation = make_ladder();
      service::UpdateService svc(trace.graph, sopt);
      const service::ServiceReport rep = svc.run(trace);

      std::uint64_t retries = 0;
      for (const auto& rec : rep.records) retries += rec.exec_retries;
      table.add_row({scenario.name, ladder ? "on" : "off",
                     std::to_string(rep.completed), std::to_string(rep.shed),
                     std::to_string(rep.watchdog_cancelled),
                     std::to_string(rep.faults_injected),
                     std::to_string(retries),
                     std::to_string(rep.health_log.size()),
                     util::fmt(rep.latency_percentile(95) / 1000.0, 0),
                     std::to_string(rep.violations)});
      if (json) {
        json->begin_row();
        json->field("scenario", scenario.name);
        json->field("ladder", ladder);
        json->field("completed", static_cast<std::int64_t>(rep.completed));
        json->field("shed", static_cast<std::int64_t>(rep.shed));
        json->field("watchdog_cancelled",
                    static_cast<std::int64_t>(rep.watchdog_cancelled));
        json->field("faults_injected",
                    static_cast<std::int64_t>(rep.faults_injected));
        json->field("exec_retries", static_cast<std::int64_t>(retries));
        json->field("health_transitions",
                    static_cast<std::int64_t>(rep.health_log.size()));
        json->field("latency_p95_us", rep.latency_percentile(95));
        json->field("violations", static_cast<std::int64_t>(rep.violations));
        json->end_row();
      }
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(quiet rows must stay violation-free; mild/storm sweep past "
              "the executor's absorption envelope on purpose, and the ladder "
              "trades completions for bounded queues — sheds and watchdog "
              "fires replace unbounded tail latency)\n");
  return 0;
}
