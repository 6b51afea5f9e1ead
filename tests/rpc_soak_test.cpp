// The rpc subsystem's end-to-end gates.
//
// ThreeTransportDigest is the determinism contract of DESIGN.md §14: the
// same 200-request workload fed (a) as an in-process vector, (b) over 64
// binary loopback connections and (c) over JSON loopback connections
// must produce the bit-identical ServiceReport digest — the wire layer
// adds transports, never behaviour.
//
// ThousandSessionBackpressureSoak drives over a thousand short sessions
// in waves against one server whose intake queue is deliberately small,
// so the defer/pause/retry backpressure path is exercised continuously;
// the gate is liveness and conservation (every request ends in exactly
// one record, every session gets its report), not a digest.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rpc/load_driver.hpp"
#include "rpc/server.hpp"
#include "service/service.hpp"
#include "service/workload.hpp"

namespace chronus::rpc {
namespace {

TEST(RpcSoakTest, ThreeTransportDigest) {
  service::WorkloadOptions wopt;
  wopt.requests = 200;
  wopt.seed = 5;
  const service::ServiceTrace trace = service::make_workload(wopt);

  service::ServiceOptions sopt;
  sopt.workers = 2;

  // (a) the in-process vector run.
  const service::ServiceReport direct =
      service::UpdateService(trace.graph, sopt).run(trace.requests);
  ASSERT_EQ(direct.total(), 200u);
  const std::string want = direct.digest();

  struct Transport {
    Codec codec;
    std::size_t connections;
  };
  // (b) binary over 64 connections, (c) JSON over 8.
  for (const Transport& t : {Transport{Codec::kBinary, 64},
                             Transport{Codec::kJson, 8}}) {
    ServerOptions opts;
    // Capacity above the workload size: nothing defers, every session
    // finishes its stream, and the whole workload lands in one planning
    // round — the precondition for digest equality with the vector run.
    opts.intake_capacity = 512;
    opts.service = sopt;
    Server server(trace.graph, opts);
    server.start();

    LoadOptions lopt;
    lopt.port = server.port();
    lopt.codec = t.codec;
    lopt.connections = t.connections;
    const LoadResult load = run_load(trace.graph, trace.requests, lopt);
    server.join();

    ASSERT_TRUE(load.ok) << to_string(t.codec) << ": " << load.error;
    EXPECT_EQ(load.acked, 200u);
    EXPECT_EQ(load.deferred, 0u);
    EXPECT_EQ(load.reports, t.connections);

    // Same digest on every connection's report and on the round itself.
    ASSERT_EQ(load.digests.size(), t.connections);
    for (const std::string& digest : load.digests) {
      EXPECT_EQ(digest, want) << to_string(t.codec);
    }
    const auto rounds = server.round_reports();
    ASSERT_EQ(rounds.size(), 1u) << to_string(t.codec);
    EXPECT_EQ(rounds[0].digest(), want) << to_string(t.codec);

    // And the records themselves, field for field.
    ASSERT_EQ(load.records.size(), direct.records.size());
    for (std::size_t i = 0; i < load.records.size(); ++i) {
      EXPECT_EQ(load.records[i], to_wire(direct.records[i]))
          << to_string(t.codec) << " record " << i;
    }
  }
}

TEST(RpcSoakTest, ThousandSessionBackpressureSoak) {
  constexpr std::size_t kWaves = 25;
  constexpr std::size_t kConnsPerWave = 41;  // 25 * 41 = 1025 sessions

  service::WorkloadOptions wopt;
  wopt.requests = static_cast<int>(kWaves * kConnsPerWave);
  wopt.pairs = 16;
  wopt.seed = 17;
  const service::ServiceTrace trace = service::make_workload(wopt);

  ServerOptions opts;
  // A deliberately tiny intake: deferral trips constantly, so the whole
  // defer -> pause -> next-round -> resume -> retry loop runs for the
  // life of the soak. Planning-only keeps the rounds cheap — the subject
  // here is the wire layer, not the executor.
  opts.intake_capacity = 8;
  opts.service.workers = 2;
  opts.service.execute = false;
  Server server(trace.graph, opts);
  server.start();

  std::uint64_t total_acked = 0;
  std::uint64_t total_deferred = 0;
  std::uint64_t total_records = 0;
  std::uint64_t total_reports = 0;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<service::UpdateRequest> slice(
        trace.requests.begin() +
            static_cast<std::ptrdiff_t>(wave * kConnsPerWave),
        trace.requests.begin() +
            static_cast<std::ptrdiff_t>((wave + 1) * kConnsPerWave));
    LoadOptions lopt;
    lopt.port = server.port();
    lopt.codec = (wave % 2 == 0) ? Codec::kBinary : Codec::kJson;
    lopt.connections = kConnsPerWave;  // one request per session
    const LoadResult load = run_load(trace.graph, slice, lopt);
    ASSERT_TRUE(load.ok) << "wave " << wave << ": " << load.error;
    ASSERT_EQ(load.rejected, 0u) << "wave " << wave;
    total_acked += load.acked;
    total_deferred += load.deferred;
    total_records += load.records.size();
    total_reports += load.reports;
  }
  server.join();

  const std::uint64_t total = kWaves * kConnsPerWave;
  // Conservation: every request was eventually accepted exactly once and
  // came back as exactly one record; every session got its report.
  EXPECT_EQ(total_acked, total);
  EXPECT_EQ(total_records, total);
  EXPECT_EQ(total_reports, total);

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.sessions, 1000u);
  EXPECT_EQ(stats.accepted, total);
  EXPECT_EQ(stats.protocol_errors, 0u);
  // The backpressure path genuinely ran: explicit deferrals were issued
  // (and retried — submits counts the retransmissions) and the workload
  // was spread across many planning rounds.
  EXPECT_GT(stats.deferred, 0u);
  EXPECT_EQ(stats.deferred, total_deferred);
  EXPECT_GT(stats.rounds, kWaves);
  EXPECT_EQ(stats.submits, stats.accepted + stats.deferred + stats.rejected);

  // Cross-round conservation on the server side too: the per-round
  // reports partition the request stream.
  std::uint64_t round_records = 0;
  for (const service::ServiceReport& rep : server.round_reports()) {
    round_records += rep.total();
  }
  EXPECT_EQ(round_records, total);
}

}  // namespace
}  // namespace chronus::rpc
