// Tests for the online update service: capacity-ledger reservation
// semantics (including the multi-threaded invariants the ThreadSanitizer
// preset hammers), admission control, workload generation, trace IO, and
// the end-to-end determinism contract — a 200-request trace must complete
// with zero verifier violations and replay to a bit-identical report, and
// six golden digests pin whole runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "io/scenario_io.hpp"
#include "io/trace_io.hpp"
#include "net/topologies.hpp"
#include "obs/metrics.hpp"
#include "service/admission.hpp"
#include "service/capacity_ledger.hpp"
#include "service/service.hpp"
#include "service/workload.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace chronus::service {
namespace {

using net::NodeId;
using net::Path;

/// s -> m -> t plus a bypass s -> b -> t.
net::Graph diamond(double cap_main, double cap_bypass) {
  net::Graph g;
  g.add_nodes(4);  // s=0 m=1 t=2 b=3
  g.add_link(0, 1, net::Capacity{cap_main}, 1);
  g.add_link(1, 2, net::Capacity{cap_main}, 1);
  g.add_link(0, 3, net::Capacity{cap_bypass}, 1);
  g.add_link(3, 2, net::Capacity{cap_bypass}, 1);
  return g;
}

TEST(TransitionFootprint, CountsEachPathOccurrence) {
  const net::Graph g = diamond(4.0, 4.0);
  const Footprint fp =
      transition_footprint(g, Path{0, 1, 2}, Path{0, 3, 2}, net::Demand{1.5});
  ASSERT_EQ(fp.size(), 4u);
  for (const auto& [link, amount] : fp) EXPECT_DOUBLE_EQ(amount.value(), 1.5);
}

TEST(TransitionFootprint, SharedLinksCountTwice) {
  net::Graph g;
  g.add_nodes(4);  // s=0 a=1 b=2 t=3 ; shared tail a->b->t
  g.add_link(0, 1, net::Capacity{4.0}, 1);   // s->a (init only)
  g.add_link(1, 2, net::Capacity{4.0}, 1);   // a->b (both)
  g.add_link(2, 3, net::Capacity{4.0}, 1);   // b->t (both)
  const net::LinkId via = g.add_link(0, 2, net::Capacity{4.0}, 1);  // s->b unused
  (void)via;
  const Footprint fp =
      transition_footprint(g, Path{0, 1, 2, 3}, Path{0, 1, 2, 3}, net::Demand{1.0});
  EXPECT_DOUBLE_EQ(fp.at(0).value(), 2.0);
  EXPECT_DOUBLE_EQ(fp.at(1).value(), 2.0);
  EXPECT_DOUBLE_EQ(fp.at(2).value(), 2.0);
  EXPECT_EQ(fp.count(3), 0u);
}

TEST(TransitionFootprint, RejectsPathsOffTheGraph) {
  const net::Graph g = diamond(4.0, 4.0);
  EXPECT_THROW(transition_footprint(g, Path{2, 0}, Path{0, 3, 2}, net::Demand{1.0}),
               std::invalid_argument);
}

TEST(CapacityLedger, ReserveIsAllOrNothing) {
  const net::Graph g = diamond(2.0, 1.0);
  CapacityLedger ledger(g);
  // Fits the main rail but not the bypass: nothing may be committed.
  Footprint fp{{0, net::Demand{1.5}}, {2, net::Demand{1.5}}};
  EXPECT_FALSE(ledger.try_reserve(fp));
  EXPECT_DOUBLE_EQ(ledger.committed(0).value(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.committed(2).value(), 0.0);

  Footprint ok{{0, net::Demand{1.5}}, {1, net::Demand{1.5}}};
  EXPECT_TRUE(ledger.try_reserve(ok));
  EXPECT_DOUBLE_EQ(ledger.committed(1).value(), 1.5);
  // A second copy no longer fits; ledger unchanged by the failed attempt.
  EXPECT_FALSE(ledger.try_reserve(ok));
  EXPECT_DOUBLE_EQ(ledger.committed(0).value(), 1.5);

  ledger.release(ok);
  EXPECT_TRUE(ledger.idle());
  EXPECT_DOUBLE_EQ(ledger.committed(0).value(), 0.0);
}

TEST(CapacityLedger, OverReleaseThrows) {
  const net::Graph g = diamond(2.0, 2.0);
  CapacityLedger ledger(g);
  EXPECT_THROW(ledger.release(Footprint{{0, net::Demand{0.5}}}), std::logic_error);
  ASSERT_TRUE(ledger.try_reserve(Footprint{{0, net::Demand{1.0}}}));
  EXPECT_THROW(ledger.release(Footprint{{0, net::Demand{1.5}}}), std::logic_error);
  ledger.release(Footprint{{0, net::Demand{1.0}}});
  EXPECT_TRUE(ledger.idle());
}

TEST(CapacityLedger, RestrictedGraphCarriesTheReservation) {
  const net::Graph g = diamond(4.0, 4.0);
  CapacityLedger ledger(g);
  const Footprint fp{{0, net::Demand{1.25}}, {1, net::Demand{1.25}}};
  const net::Graph r = ledger.restricted_graph(g, fp);
  EXPECT_DOUBLE_EQ(r.link(0).capacity.value(), 1.25);
  EXPECT_DOUBLE_EQ(r.link(1).capacity.value(), 1.25);
  EXPECT_DOUBLE_EQ(r.link(2).capacity.value(), 4.0);  // untouched
  EXPECT_DOUBLE_EQ(g.link(0).capacity.value(), 4.0);  // original intact
}

TEST(CapacityLedger, ConcurrentReserveReleaseNeverOvercommits) {
  const net::Graph g = diamond(3.0, 2.0);
  CapacityLedger ledger(g);
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<int> reservations{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ledger, &reservations, t] {
      util::Rng rng(static_cast<std::uint64_t>(1000 + t));
      for (int i = 0; i < kIters; ++i) {
        Footprint fp;
        fp[static_cast<net::LinkId>(rng.uniform_int(0, 3))] =
            net::Demand{0.5 + rng.uniform01()};
        fp[static_cast<net::LinkId>(rng.uniform_int(0, 3))] =
            net::Demand{0.5 + rng.uniform01()};
        if (ledger.try_reserve(fp)) {
          ++reservations;
          // Committed amounts may never exceed capacity while held.
          for (const auto& [link, _] : fp) {
            EXPECT_LE(ledger.committed(link),
                      ledger.capacity(link) + net::Demand{1e-9});
          }
          ledger.release(fp);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_TRUE(ledger.idle());
  EXPECT_GT(reservations.load(), 0);
  EXPECT_LE(ledger.peak_utilization(), 1.0 + 1e-9);
}

TEST(Workload, IsDeterministicPerSeed) {
  WorkloadOptions opt;
  opt.requests = 40;
  opt.rescue_sites = 1;
  opt.seed = 9;
  const ServiceTrace a = make_workload(opt);
  const ServiceTrace b = make_workload(opt);
  ASSERT_EQ(a.requests.size(), 40u);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, b.requests[i].id);
    EXPECT_EQ(a.requests[i].arrival, b.requests[i].arrival);
    EXPECT_DOUBLE_EQ(a.requests[i].demand.value(), b.requests[i].demand.value());
    EXPECT_EQ(a.requests[i].p_init, b.requests[i].p_init);
    EXPECT_EQ(a.requests[i].p_fin, b.requests[i].p_fin);
  }
  opt.seed = 10;
  const ServiceTrace c = make_workload(opt);
  bool differs = false;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    differs = differs || a.requests[i].arrival != c.requests[i].arrival;
  }
  EXPECT_TRUE(differs);
}

TEST(Workload, RejectsMoreSitesThanRequests) {
  WorkloadOptions opt;
  opt.requests = 5;
  opt.rescue_sites = 2;
  EXPECT_THROW(make_workload(opt), std::invalid_argument);
}

TEST(TraceIo, RoundTrips) {
  WorkloadOptions opt;
  opt.requests = 12;
  opt.rescue_sites = 1;
  const ServiceTrace trace = make_workload(opt);
  std::stringstream buf;
  io::write_trace(buf, trace);
  const ServiceTrace back = io::read_trace(buf);
  ASSERT_EQ(back.graph.link_count(), trace.graph.link_count());
  for (net::LinkId l = 0; l < trace.graph.link_count(); ++l) {
    EXPECT_DOUBLE_EQ(back.graph.link(l).capacity.value(),
                     trace.graph.link(l).capacity.value());
  }
  ASSERT_EQ(back.requests.size(), trace.requests.size());
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(back.requests[i].id, trace.requests[i].id);
    EXPECT_EQ(back.requests[i].arrival, trace.requests[i].arrival);
    EXPECT_EQ(back.requests[i].deadline, trace.requests[i].deadline);
    EXPECT_EQ(back.requests[i].priority, trace.requests[i].priority);
    EXPECT_NEAR(back.requests[i].demand.value(), trace.requests[i].demand.value(), 1e-9);
    EXPECT_EQ(back.requests[i].p_init, trace.requests[i].p_init);
    EXPECT_EQ(back.requests[i].p_fin, trace.requests[i].p_fin);
  }

  // The checked-in sample trace (the one EXPERIMENTS.md serves) must still
  // parse, hold requests, and survive the same round trip.
  const ServiceTrace sample =
      io::read_trace_file(std::string(CHRONUS_TESTDATA_DIR) + "/sample.trace");
  ASSERT_FALSE(sample.requests.empty());
  std::stringstream sample_buf;
  io::write_trace(sample_buf, sample);
  const ServiceTrace sample_back = io::read_trace(sample_buf);
  EXPECT_EQ(sample_back.graph.link_count(), sample.graph.link_count());
  EXPECT_EQ(sample_back.requests.size(), sample.requests.size());
}

TEST(TraceIo, RejectsDuplicateIds) {
  std::stringstream buf(
      "link s m cap=2 delay=1\nlink m t cap=2 delay=1\n"
      "link s b cap=2 delay=1\nlink b t cap=2 delay=1\n"
      "request 1 arrival=0 demand=1 init s m t fin s b t\n"
      "request 1 arrival=5 demand=1 init s m t fin s b t\n");
  EXPECT_THROW(io::read_trace(buf), std::runtime_error);
}

UpdateRequest reroute_request(std::uint64_t id, sim::SimTime arrival,
                              double demand) {
  UpdateRequest req;
  req.id = id;
  req.arrival = arrival;
  req.demand = net::Demand{demand};
  req.p_init = Path{0, 1, 2};
  req.p_fin = Path{0, 3, 2};
  return req;
}

TEST(UpdateService, CompletesASingleRequest) {
  UpdateService svc(diamond(2.0, 2.0));
  const ServiceReport rep = svc.run({reroute_request(0, 0, 1.0)});
  ASSERT_EQ(rep.records.size(), 1u);
  EXPECT_EQ(rep.records[0].status, RequestStatus::kCompleted);
  EXPECT_TRUE(rep.records[0].plan_verified);
  EXPECT_TRUE(rep.records[0].run_verified);
  EXPECT_EQ(rep.violations, 0);
  EXPECT_GT(rep.records[0].latency(), 0);
  EXPECT_GT(rep.throughput_hz(), 0.0);
}

TEST(UpdateService, ArrivalAtTheHorizonCompletesAndOnePastBreaksTheContract) {
  UpdateService svc(diamond(2.0, 2.0));
  const ServiceReport rep = svc.run({reroute_request(0, kMaxArrival, 1.0)});
  ASSERT_EQ(rep.records.size(), 1u);
  EXPECT_EQ(rep.records[0].status, RequestStatus::kCompleted);
  EXPECT_EQ(rep.records[0].arrival, kMaxArrival);
  EXPECT_GT(rep.records[0].completed, kMaxArrival);
#if CHRONUS_CONTRACT_LEVEL >= 1
  EXPECT_THROW(svc.run({reroute_request(0, kMaxArrival + 1, 1.0)}),
               util::ContractViolation);
#endif
}

TEST(UpdateService, RejectsUnfittableDemand) {
  UpdateService svc(diamond(2.0, 2.0));
  const ServiceReport rep = svc.run({reroute_request(0, 0, 5.0)});
  EXPECT_EQ(rep.records[0].status, RequestStatus::kRejectedInfeasible);
  EXPECT_EQ(rep.completed, 0);
}

TEST(UpdateService, RejectsExpiredDeadlines) {
  UpdateRequest req = reroute_request(0, 10 * sim::kMillisecond, 1.0);
  req.deadline = req.arrival + 1;  // expires before the epoch boundary
  UpdateService svc(diamond(2.0, 2.0));
  const ServiceReport rep = svc.run({req});
  EXPECT_EQ(rep.records[0].status, RequestStatus::kRejectedDeadline);
}

TEST(UpdateService, RejectsDuplicateIds) {
  UpdateService svc(diamond(2.0, 2.0));
  EXPECT_THROW(
      svc.run({reroute_request(1, 0, 1.0), reroute_request(1, 0, 1.0)}),
      std::invalid_argument);
}

TEST(UpdateService, SerializesContendingRequests) {
  // Both requests transition over the same links; the rails hold one flow,
  // so the second must wait for the first release.
  UpdateService svc(diamond(1.5, 1.5));
  const ServiceReport rep =
      svc.run({reroute_request(0, 0, 1.0), reroute_request(1, 0, 1.0)});
  EXPECT_EQ(rep.records[0].status, RequestStatus::kCompleted);
  EXPECT_EQ(rep.records[1].status, RequestStatus::kCompleted);
  EXPECT_EQ(rep.violations, 0);
  EXPECT_GT(rep.records[1].defers, 0);
  EXPECT_GT(rep.records[1].completed, rep.records[0].completed);
}

TEST(UpdateService, StarvedRequestsAreRejectedAtMaxDefers) {
  ServiceOptions opts;
  opts.admission.max_defers = 2;
  UpdateService svc(diamond(1.5, 1.5), opts);
  const ServiceReport rep =
      svc.run({reroute_request(0, 0, 1.0), reroute_request(1, 0, 1.0)});
  EXPECT_EQ(rep.records[0].status, RequestStatus::kCompleted);
  EXPECT_EQ(rep.records[1].status, RequestStatus::kRejectedCapacity);
}

TEST(UpdateService, BlockedEntererWaitsForTheInFlightRelease) {
  // One rescue site: an enterer (0) grabs the contested link, then a
  // vacater (1) and a second enterer (2) arrive while it is in flight. The
  // link carries 1.25 flows, so neither fits beside the first enterer:
  // both wait for its release, and the second enterer for the vacater's.
  WorkloadOptions wopt;
  wopt.requests = 3;
  wopt.rescue_sites = 1;
  wopt.seed = 3;
  const ServiceTrace trace = make_workload(wopt);
  UpdateService svc(trace.graph);
  const ServiceReport rep = svc.run(trace);
  ASSERT_EQ(rep.records.size(), 3u);
  EXPECT_EQ(rep.completed, 3);
  EXPECT_EQ(rep.violations, 0);
  EXPECT_GT(rep.records[2].defers, 0);
  EXPECT_GE(rep.records[2].admitted, rep.records[0].completed);
  EXPECT_GE(rep.records[2].admitted, rep.records[1].completed);
}

// Rescue sites were built for joint planning; waiting for the in-flight
// release completes every request of them, with no violation.
TEST(UpdateService, RescueSitesDrainByWaiting) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    WorkloadOptions wopt;
    wopt.requests = 60;
    wopt.rescue_sites = 20;
    wopt.seed = seed;
    const ServiceTrace trace = make_workload(wopt);
    const ServiceReport rep = UpdateService(trace.graph).run(trace);
    EXPECT_EQ(rep.completed, 60u) << "seed " << seed;
    EXPECT_EQ(rep.violations, 0) << "seed " << seed;
  }
}

TEST(UpdateService, PlanOnlyModeSkipsExecution) {
  ServiceOptions opts;
  opts.execute = false;
  UpdateService svc(diamond(2.0, 2.0), opts);
  const ServiceReport rep = svc.run({reroute_request(0, 0, 1.0)});
  EXPECT_EQ(rep.records[0].status, RequestStatus::kCompleted);
  EXPECT_EQ(rep.records[0].exec_retries, 0);
  EXPECT_EQ(rep.records[0].exec_duration, 0);
  EXPECT_GT(rep.records[0].plan_span, 0);
}

/// The acceptance bar: a 200-request generated trace completes with zero
/// verifier violations, and a second run of the same configuration gives a
/// bit-identical report digest and logical metrics slice.
TEST(UpdateService, TwoHundredRequestTraceIsDeterministicAndClean) {
  WorkloadOptions wopt;
  wopt.requests = 200;
  wopt.arrival_rate_hz = 40.0;
  wopt.conflict_density = 0.5;
  wopt.rescue_sites = 2;
  wopt.seed = 3;
  const ServiceTrace trace = make_workload(wopt);

  // Each run observes into its own registry, so the metrics surface can be
  // compared across runs exactly like the report digest.
  const auto run_once = [&trace](obs::MetricsSnapshot* snap) {
    obs::MetricsRegistry reg;
    const obs::ScopedMetrics scope(reg);
    ServiceReport rep = UpdateService(trace.graph).run(trace);
    *snap = reg.snapshot();
    return rep;
  };
  obs::MetricsSnapshot snap1, snap2;
  const ServiceReport rep1 = run_once(&snap1);
  const ServiceReport rep2 = run_once(&snap2);

  EXPECT_EQ(rep2.violations, 0);
  EXPECT_EQ(rep2.failed, 0);
  EXPECT_GT(rep2.completed, 100);
  EXPECT_GT(rep2.throughput_hz(), 0.0);
  EXPECT_EQ(rep1.digest(), rep2.digest());

  // The determinism contract extends to every logical metric: counters
  // (admissions, rejections, ledger reserve/release totals, ...)
  // and virtual-time histograms must be bit-identical; only wall-clock
  // durations and gauges may differ between runs.
  const obs::MetricsSnapshot logical1 = snap1.logical();
  const obs::MetricsSnapshot logical2 = snap2.logical();
  EXPECT_EQ(logical1.counters, logical2.counters);
  EXPECT_EQ(logical1.histograms, logical2.histograms);
  EXPECT_GT(logical2.counters.at("ledger.reserves"), 0u);
  EXPECT_EQ(logical2.counters.at("ledger.reserves"),
            logical2.counters.at("ledger.releases"));
  EXPECT_GT(logical2.counters.at("admission.rounds"), 0u);
  EXPECT_GT(logical2.counters.at("service.completed"), 100u);
}

// Golden digests of whole service runs: a 64-bit FNV-1a of
// ServiceReport::digest() (every record field and the health log) over six
// traces that between them reach every path of the dispatcher — deferral
// and max-defers rejection, rescue sites, chaos faults with retries and
// the degradation ladder, plan-only mode, and fat-tree reroutes the
// guarded greedy cannot plan. A change that moves one changes some
// request's outcome, so re-pin only deliberately and say which records
// moved. All six were re-pinned when the record lost its joint-batch
// fields, from a build whose admission never formed a joint batch; the
// fat-tree value moved again when an unplannable request became final at
// its first plan (only requests queued at or after that plan changed).

std::uint64_t digest_hash(const ServiceReport& rep) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : rep.digest()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

/// Runs `wopt`'s trace through a service with `sopt` and returns the hash.
std::uint64_t golden_run(const WorkloadOptions& wopt,
                         const ServiceOptions& sopt = {}) {
  const ServiceTrace trace = make_workload(wopt);
  return digest_hash(UpdateService(trace.graph, sopt).run(trace));
}

/// `chronus_cli trace --requests=400 --rate=40 --seed=7`.
WorkloadOptions golden_trace_400() {
  WorkloadOptions w;
  w.requests = 400;
  w.arrival_rate_hz = 40.0;
  w.seed = 7;
  return w;
}

// A rejected timed bundle is re-sent before its instant like a dropped
// one. Left to the per-step barrier sweep, a new-only switch's rule landed
// after its upstream flipped, and the post-hoc verifier caught the
// blackhole in between (18 violations on this trace).
TEST(UpdateService, RejectedBundlesLeaveNoViolation) {
  ServiceOptions o;
  o.faults.reject_rate = 0.1;
  const ServiceTrace trace = make_workload(golden_trace_400());
  const ServiceReport rep = UpdateService(trace.graph, o).run(trace);
  EXPECT_GT(rep.faults_injected, 0u);
  EXPECT_GT(rep.completed, 200u);
  EXPECT_EQ(rep.violations, 0);
}

TEST(ServiceGoldenDigest, Trace400) {
  EXPECT_EQ(hex(golden_run(golden_trace_400())), "0x5c095ffeebf905fd");
}

TEST(ServiceGoldenDigest, Burst2000) {
  WorkloadOptions w;  // trace --requests=2000 --rate=1000 --pairs=16
  w.requests = 2000;
  w.arrival_rate_hz = 1000.0;
  w.pairs = 16;
  EXPECT_EQ(hex(golden_run(w)), "0x488b8dfe32bbb0e");
}

TEST(ServiceGoldenDigest, RescueTrace) {
  WorkloadOptions w = golden_trace_400();
  w.conflict_density = 0.6;
  w.rescue_sites = 20;
  w.seed = 3;
  const ServiceTrace trace = make_workload(w);
  const ServiceReport rep = UpdateService(trace.graph).run(trace);
  EXPECT_EQ(hex(digest_hash(rep)), "0x78a7c7b0f3d1f817");
}

TEST(ServiceGoldenDigest, Trace400UnderStormScenario) {
  const sim::ChaosScenario storm = io::read_scenario_file(
      std::string(CHRONUS_TESTDATA_DIR) + "/scenarios/storm.scn");
  WorkloadOptions w = golden_trace_400();
  w.chaos = &storm;
  ServiceOptions o;
  o.chaos = &storm;
  o.degradation.latency_slo = 10 * sim::kSecond;
  o.degradation.defer_enter = 40;
  o.degradation.defer_exit = 20;
  const ServiceTrace trace = make_workload(w);
  const ServiceReport rep = UpdateService(trace.graph, o).run(trace);
  EXPECT_GT(rep.faults_injected, 0u);
  int retried = 0;
  for (const RequestRecord& r : rep.records) retried += r.exec_retries > 0;
  EXPECT_GT(retried, 0);
  EXPECT_FALSE(rep.health_log.empty());
  EXPECT_GT(rep.watchdog_cancelled, 0u);
  EXPECT_EQ(hex(digest_hash(rep)), "0xffd9cb6e5a14465a");
}

TEST(ServiceGoldenDigest, Trace400PlanOnly) {
  ServiceOptions o;
  o.execute = false;
  EXPECT_EQ(hex(golden_run(golden_trace_400(), o)), "0xc7f45b64364fc2f6");
}

/// A reroute between edge switches of two pods of fat_tree(8), drawn from
/// `rng`; nullopt when random_reroute finds none.
std::optional<UpdateRequest> draw_reroute(const net::FatTree& ft,
                                          util::Rng& rng) {
  const std::size_t pod_a = rng.index(8);
  std::size_t pod_b = rng.index(7);
  if (pod_b >= pod_a) ++pod_b;
  const NodeId src = ft.edge[pod_a][rng.index(ft.edge[pod_a].size())];
  const NodeId dst = ft.edge[pod_b][rng.index(ft.edge[pod_b].size())];
  const net::Demand demand{0.5 + static_cast<double>(rng.index(17)) / 16.0};
  const auto inst = net::random_reroute(ft.graph, src, dst, demand, rng);
  if (!inst) return std::nullopt;
  UpdateRequest r;
  r.demand = demand;
  r.p_init = inst->p_init();
  r.p_fin = inst->p_fin();
  return r;
}

/// True iff the guarded greedy finds an order for `r` within its own
/// reservation on an idle network.
bool plannable_alone(const net::Graph& g, const UpdateRequest& r) {
  const net::UpdateInstance alone = net::UpdateInstance::from_paths(
      CapacityLedger(g).restricted_graph(
          g, transition_footprint(g, r.p_init, r.p_fin, r.demand)),
      r.p_init, r.p_fin, r.demand);
  return core::greedy_schedule(alone, ServiceOptions{}.greedy).feasible();
}

TEST(ServiceGoldenDigest, FatTreeWithUnplannableReroutes) {
  const net::FatTree ft = net::fat_tree(8, net::Capacity{4.0});
  util::Rng rng(20170605);
  std::vector<UpdateRequest> requests;
  int unplannable = 0;
  while (requests.size() < 200) {
    std::optional<UpdateRequest> r = draw_reroute(ft, rng);
    if (!r) continue;
    r->id = requests.size();
    r->arrival = static_cast<sim::SimTime>(r->id) * 10 * sim::kMillisecond;
    unplannable += plannable_alone(ft.graph, *r) ? 0 : 1;
    requests.push_back(std::move(*r));
  }
  ASSERT_GT(unplannable, 0);
  const ServiceReport rep = UpdateService(ft.graph).run(requests);
  EXPECT_EQ(rep.violations, 0);
  EXPECT_EQ(hex(digest_hash(rep)), "0xbd79fc85fa06d7fc");
}

/// Every field of a record, as one comparable line.
std::string record_line(const RequestRecord& rec) {
  ServiceReport one;
  one.records.push_back(rec);
  return one.digest() + rec.message;
}

// Each single's job borrows one working copy of the topology, narrows its
// footprint links and hands the graph back. One run mixing a request
// whose instance cannot be built (rejected when it arrives), an
// unplannable reroute and plannable reroutes over the same links must
// record every request as a fresh service running it alone does. Only footprint capacities are read, so a graph handed back
// narrowed would not show in the records; the job's postcondition throws
// instead, and a graph not handed back throws on the next job.
TEST(UpdateService, LentWorkingGraphComesBackUnchanged) {
  const net::FatTree ft = net::fat_tree(8, net::Capacity{4.0});
  util::Rng rng(20170605);
  std::optional<UpdateRequest> stuck;  // the first unplannable reroute
  std::vector<UpdateRequest> fine;
  for (int draw = 0; draw < 4000 && (!stuck || fine.size() < 3); ++draw) {
    const std::optional<UpdateRequest> r = draw_reroute(ft, rng);
    if (!r) continue;
    if (!plannable_alone(ft.graph, *r)) {
      if (!stuck) stuck = r;
      continue;
    }
    if (!stuck) continue;
    // A plannable reroute sharing a link with the unplannable one.
    const Footprint a = transition_footprint(ft.graph, stuck->p_init,
                                             stuck->p_fin, stuck->demand);
    const Footprint b =
        transition_footprint(ft.graph, r->p_init, r->p_fin, r->demand);
    const bool shared = std::any_of(a.begin(), a.end(), [&](const auto& e) {
      return b.count(e.first) > 0;
    });
    if (shared) fine.push_back(*r);
  }
  ASSERT_TRUE(stuck.has_value());
  ASSERT_EQ(fine.size(), 3u);

  // Over the unplannable request's links, but ending elsewhere: the
  // footprint exists, from_paths throws.
  UpdateRequest broken = *stuck;
  std::vector<NodeId> cut(stuck->p_fin.nodes().begin(),
                          stuck->p_fin.nodes().end() - 1);
  broken.p_fin = Path(cut);

  std::vector<UpdateRequest> requests{fine[0], broken, fine[1], *stuck,
                                      fine[2], broken, *stuck};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = i;
    // 10 s apart: each request meets an idle ledger, alone or not.
    requests[i].arrival = static_cast<sim::SimTime>(i) * 10 * sim::kSecond;
  }
  const ServiceReport together = UpdateService(ft.graph).run(requests);
  ASSERT_EQ(together.records.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServiceReport alone = UpdateService(ft.graph).run({requests[i]});
    ASSERT_EQ(alone.records.size(), 1u);
    EXPECT_EQ(record_line(together.records[i]), record_line(alone.records[0]))
        << "request " << i;
  }
  EXPECT_EQ(together.completed, 3u);
  EXPECT_EQ(together.records[1].message,
            "paths must share source and destination");
  EXPECT_EQ(together.records[3].status, RequestStatus::kRejectedInfeasible);
}

/// The first reroute drawn from `rng` that the guarded greedy cannot plan
/// alone; nullopt if none turns up within `draws` draws.
std::optional<UpdateRequest> draw_unplannable(const net::FatTree& ft,
                                              util::Rng& rng, int draws) {
  for (int draw = 0; draw < draws; ++draw) {
    const std::optional<UpdateRequest> r = draw_reroute(ft, rng);
    if (r && !plannable_alone(ft.graph, *r)) return r;
  }
  return std::nullopt;
}

// A single's plan reads only the request and its own reservation, so an
// infeasible plan is final: the request is rejected as infeasible in the
// round of its first plan, with the greedy's message, after one greedy
// call.
TEST(UpdateService, UnplannableRequestIsFinalAtItsFirstPlan) {
  const net::FatTree ft = net::fat_tree(8, net::Capacity{4.0});
  util::Rng rng(20170605);
  const std::optional<UpdateRequest> stuck = draw_unplannable(ft, rng, 4000);
  ASSERT_TRUE(stuck.has_value());
  obs::MetricsRegistry reg;
  ServiceReport rep;
  {
    const obs::ScopedMetrics scope(reg);
    rep = UpdateService(ft.graph).run({*stuck});
  }
  ASSERT_EQ(rep.records.size(), 1u);
  const RequestRecord& r = rep.records[0];
  EXPECT_EQ(r.status, RequestStatus::kRejectedInfeasible);
  EXPECT_EQ(r.defers, 0);
  EXPECT_FALSE(r.message.empty());
  const auto counters = reg.snapshot().counters;
  EXPECT_EQ(counters.at("greedy.calls"), 1u);
  EXPECT_EQ(counters.at("greedy.infeasible"), 1u);
  EXPECT_EQ(counters.at("ledger.reserves"), counters.at("ledger.releases"));
}

// A plannable request that arrives with an unplannable one it cannot fit
// beside, and is served after it. The unplannable one is rejected at its
// first plan and releases its footprint, so the other is admitted in the
// next round instead of waiting behind a reservation that no plan uses.
TEST(UpdateService, PlannableRequestBehindAnUnplannableOneCompletes) {
  const net::FatTree ft = net::fat_tree(8, net::Capacity{4.0});
  util::Rng rng(20170605);
  std::optional<UpdateRequest> stuck = draw_unplannable(ft, rng, 4000);
  ASSERT_TRUE(stuck.has_value());
  const Footprint a = transition_footprint(ft.graph, stuck->p_init,
                                           stuck->p_fin, stuck->demand);
  std::optional<UpdateRequest> blocked;
  for (int draw = 0; draw < 4000 && !blocked; ++draw) {
    const std::optional<UpdateRequest> r = draw_reroute(ft, rng);
    if (!r || !plannable_alone(ft.graph, *r)) continue;
    const Footprint b =
        transition_footprint(ft.graph, r->p_init, r->p_fin, r->demand);
    // The two footprints overrun a link they share.
    const bool clash = std::any_of(a.begin(), a.end(), [&](const auto& e) {
      const auto it = b.find(e.first);
      return it != b.end() &&
             e.second + it->second > ft.graph.link(e.first).capacity;
    });
    if (clash) blocked = r;
  }
  ASSERT_TRUE(blocked.has_value());
  stuck->id = 0;
  blocked->id = 1;  // same arrival, served second
  const ServiceReport rep = UpdateService(ft.graph).run({*stuck, *blocked});
  ASSERT_EQ(rep.records.size(), 2u);
  EXPECT_EQ(rep.records[0].status, RequestStatus::kRejectedInfeasible);
  EXPECT_EQ(rep.records[1].status, RequestStatus::kCompleted);
  EXPECT_EQ(rep.records[1].defers, 1);
  EXPECT_EQ(rep.violations, 0);
}

// testdata/malformed_paths.trace holds one request, `init s0 A B t0` /
// `fin s0 C D`: its links exist, so it has a footprint, but its paths end
// apart, so no instance can be built from them. It is rejected as
// infeasible at arrival, in the run's only epoch: admitted, it would throw
// in from_paths in every epoch until max_defers (64) turned it into a
// capacity rejection.
TEST(UpdateService, MalformedPathsAreRejectedAtArrival) {
  const ServiceTrace trace = io::read_trace_file(
      std::string(CHRONUS_TESTDATA_DIR) + "/malformed_paths.trace");
  obs::MetricsRegistry reg;
  const obs::ScopedMetrics scope(reg);
  const ServiceReport rep = UpdateService(trace.graph).run(trace);
  ASSERT_EQ(rep.records.size(), 1u);
  const RequestRecord& r = rep.records[0];
  EXPECT_EQ(r.status, RequestStatus::kRejectedInfeasible);
  EXPECT_EQ(r.defers, 0);
  EXPECT_EQ(r.message, "paths must share source and destination");
  EXPECT_EQ(reg.snapshot().counters.at("service.epochs"), 1u);
}

}  // namespace
}  // namespace chronus::service
