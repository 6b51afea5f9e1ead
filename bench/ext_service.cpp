// Extension — online service throughput under load (no paper counterpart;
// the paper schedules one update offline, this bench drives the
// long-running service of src/service).
//
// Sweeps arrival rate x flow-pair count x conflict density over generated
// workloads (service/workload.hpp) and reports, per point: completion
// throughput, rejection rate, mean and p95 request latency, and admission
// rounds — all with every accepted plan re-verified congestion- and
// loop-free under the reservation capacities (the `violations` column must
// stay 0).
//
//   ./bench/ext_service [--requests=N] [--rescue=N] [--seed=N]
//                       [--json=PATH] [--metrics=PATH]
#include "bench_common.hpp"

#include "service/service.hpp"
#include "service/workload.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace chronus;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto requests = static_cast<int>(cli.get_int("requests", 120));
  const auto rescue = static_cast<int>(cli.get_int("rescue", 2));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  auto json = bench::json_from_cli(cli, "ext_service");
  auto metrics = bench::metrics_from_cli(cli, "ext_service");
  bench::reject_unknown_flags(cli);
  if (json) {
    // Trajectory declaration (tests/bench_schema_test.cpp): the rows are
    // virtual-time quantities from fixed seeds, so the CI gate compares
    // them exactly — a zero noise band.
    json->meta("schema", std::string("bench-trajectory-v1"));
    json->meta("noise_band_pct", std::int64_t{0});
    json->meta("requests", static_cast<std::int64_t>(requests));
    json->meta("rescue_sites", static_cast<std::int64_t>(rescue));
    json->meta("seed", static_cast<std::int64_t>(seed));
  }

  bench::print_header("Extension", "online update service under load");
  std::printf("%d requests per point, %d rescue sites, seed=%llu\n\n",
              requests, rescue, static_cast<unsigned long long>(seed));

  util::Table table({"rate Hz", "pairs", "conflict", "done %", "rej %",
                     "thr req/s", "lat ms", "p95 ms", "rounds",
                     "violations"});
  for (const double rate : {10.0, 25.0, 50.0}) {
    for (const int pairs : {4, 8}) {
      for (const double conflict : {0.2, 0.6}) {
        service::WorkloadOptions wopt;
        wopt.requests = requests;
        wopt.arrival_rate_hz = rate;
        wopt.pairs = pairs;
        wopt.conflict_density = conflict;
        wopt.rescue_sites = rescue;
        wopt.seed = seed;
        const service::ServiceTrace trace = service::make_workload(wopt);

        service::ServiceOptions sopt;
        sopt.seed = seed;
        service::UpdateService svc(trace.graph, sopt);
        const service::ServiceReport rep = svc.run(trace);

        const double total = static_cast<double>(rep.total());
        table.add_row(
            {util::fmt(rate, 0), std::to_string(pairs),
             util::fmt(conflict, 1),
             util::fmt(total > 0 ? 100.0 * rep.completed / total : 0.0, 1),
             util::fmt(100.0 * rep.rejection_rate(), 1),
             util::fmt(rep.throughput_hz(), 1),
             util::fmt(rep.mean_latency() / 1000.0, 0),
             util::fmt(rep.latency_percentile(95) / 1000.0, 0),
             std::to_string(rep.admission_rounds),
             std::to_string(rep.violations)});
        if (json) {
          json->begin_row();
          json->field("rate_hz", rate);
          json->field("pairs", static_cast<std::int64_t>(pairs));
          json->field("conflict", conflict);
          json->field("completed", static_cast<std::int64_t>(rep.completed));
          json->field("rejected", static_cast<std::int64_t>(rep.rejected()));
          json->field("failed", static_cast<std::int64_t>(rep.failed));
          json->field("throughput_hz", rep.throughput_hz());
          json->field("latency_mean_us", rep.mean_latency());
          json->field("latency_p95_us", rep.latency_percentile(95));
          json->field("admission_rounds",
                      static_cast<std::int64_t>(rep.admission_rounds));
          json->field("violations", static_cast<std::int64_t>(rep.violations));
          json->end_row();
        }
      }
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\n(throughput saturates once the contested core rails are "
              "ledger-full; past that point admission defers and finally "
              "rejects the overflow instead of congesting the data plane — "
              "the violations column staying 0 is the service's invariant)\n");
  return 0;
}
