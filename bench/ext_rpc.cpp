// Extension — rpc wire front-end overhead (no paper counterpart; the
// paper's controller is a library call, this bench measures what the
// socket front-end of src/rpc adds on top of it).
//
// One fixed workload is pushed through the update service four ways: as
// an in-process vector, and over loopback sockets with 1 and many binary
// connections and a JSON connection pool. Every configuration is sized
// for a single planning round, so the ServiceReport digest — and with it
// the completed/rejected columns — must be bit-identical across all
// rows; the bench exits non-zero if any transport drifts. Wall-clock
// columns carry the `_wall_us` suffix and are the only machine-dependent
// fields (CI strips them before comparing BENCH_rpc.json).
//
//   ./bench/ext_rpc [--requests=N] [--seed=N] [--json=PATH] [--metrics=PATH]
#include "bench_common.hpp"

#include "rpc/load_driver.hpp"
#include "rpc/server.hpp"
#include "service/service.hpp"
#include "service/workload.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace chronus;

namespace {

/// Stable 64-bit FNV-1a fingerprint of the (multi-line) report digest, so
/// a row can carry the determinism gate as one short hex field.
std::string fingerprint(const std::string& digest) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : digest) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct RowResult {
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::string digest;
  double wall_us = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto requests = static_cast<int>(cli.get_int("requests", 120));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  auto json = bench::json_from_cli(cli, "ext_rpc");
  auto metrics = bench::metrics_from_cli(cli, "ext_rpc");
  bench::reject_unknown_flags(cli);
  if (json) {
    // Trajectory declaration (tests/bench_schema_test.cpp): every row is
    // deterministic except the *_wall_us columns, which the CI comparison
    // strips by that naming convention; the rest carries a zero band.
    json->meta("schema", std::string("bench-trajectory-v1"));
    json->meta("noise_band_pct", std::int64_t{0});
    json->meta("requests", static_cast<std::int64_t>(requests));
    json->meta("seed", static_cast<std::int64_t>(seed));
  }

  bench::print_header("Extension", "rpc front-end vs in-process service");
  std::printf("%d requests, seed=%llu; single planning round per mode\n\n",
              requests, static_cast<unsigned long long>(seed));

  service::WorkloadOptions wopt;
  wopt.requests = requests;
  wopt.seed = seed;
  const service::ServiceTrace trace = service::make_workload(wopt);

  service::ServiceOptions sopt;
  sopt.seed = seed;

  struct Mode {
    const char* mode;
    const char* codec;  // "-" for inproc
    std::size_t connections;
  };
  const Mode kModes[] = {
      {"inproc", "-", 0},
      {"rpc", "binary", 1},
      {"rpc", "binary", 8},
      {"rpc", "binary", 32},
      {"rpc", "json", 8},
  };

  util::Table table({"mode", "codec", "conns", "done", "rej", "wall ms",
                     "digest"});
  std::string want_digest;
  bool consistent = true;
  for (const Mode& m : kModes) {
    RowResult row;
    util::Stopwatch watch;
    if (m.connections == 0) {
      const service::ServiceReport rep =
          service::UpdateService(trace.graph, sopt).run(trace.requests);
      row.wall_us = watch.seconds() * 1e6;
      row.completed = rep.completed;
      row.rejected = rep.rejected();
      row.digest = rep.digest();
    } else {
      rpc::ServerOptions opts;
      // Capacity above the workload: no deferrals, one round — the
      // precondition for cross-transport digest equality.
      opts.intake_capacity =
          static_cast<std::size_t>(requests) * 2 + 16;
      opts.service = sopt;
      rpc::Server server(trace.graph, opts);
      server.start();
      rpc::LoadOptions lopt;
      lopt.port = server.port();
      lopt.codec = (std::string(m.codec) == "json") ? rpc::Codec::kJson
                                                    : rpc::Codec::kBinary;
      lopt.connections = m.connections;
      const rpc::LoadResult load = rpc::run_load(trace.graph, trace.requests,
                                                 lopt);
      server.join();
      row.wall_us = watch.seconds() * 1e6;
      if (!load.ok) {
        std::fprintf(stderr, "rpc load failed (%s x%zu): %s\n", m.codec,
                     m.connections, load.error.c_str());
        return 1;
      }
      const auto rounds = server.round_reports();
      if (rounds.size() != 1) {
        std::fprintf(stderr, "expected one planning round, got %zu\n",
                     rounds.size());
        return 1;
      }
      row.completed = rounds[0].completed;
      row.rejected = rounds[0].rejected() + load.rejected;
      row.digest = rounds[0].digest();
    }

    if (want_digest.empty()) want_digest = row.digest;
    if (row.digest != want_digest) consistent = false;

    table.add_row({m.mode, m.codec, std::to_string(m.connections),
                   std::to_string(row.completed), std::to_string(row.rejected),
                   util::fmt(row.wall_us / 1000.0, 1),
                   fingerprint(row.digest)});
    if (json) {
      json->begin_row();
      json->field("mode", std::string(m.mode));
      json->field("codec", std::string(m.codec));
      json->field("connections", static_cast<std::int64_t>(m.connections));
      json->field("requests", static_cast<std::int64_t>(requests));
      json->field("completed", static_cast<std::int64_t>(row.completed));
      json->field("rejected", static_cast<std::int64_t>(row.rejected));
      json->field("digest", fingerprint(row.digest));
      json->field("run_wall_us", row.wall_us);  // machine-dependent, CI-strips
      json->end_row();
    }
  }
  std::printf("%s", table.to_string().c_str());
  if (!consistent) {
    std::fprintf(stderr, "\nDIGEST MISMATCH: a transport changed the "
                         "service outcome\n");
    return 1;
  }
  std::printf("\n(identical digest column = the wire layer added transports, "
              "not behaviour; the wall column is the only thing the codecs "
              "and connection counts may change)\n");
  return 0;
}
