// Tests for the online update service: capacity-ledger reservation
// semantics (including the multi-threaded invariants the ThreadSanitizer
// preset hammers), admission control, workload generation, trace IO, and
// the end-to-end determinism contract — a 200-request trace must complete
// with zero verifier violations and replay to a bit-identical report, and
// six golden digests pin whole runs.
#include <gtest/gtest.h>

#include <atomic>
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
  EXPECT_TRUE(ledger.fits(ok));
  EXPECT_TRUE(ledger.try_reserve(ok));
  EXPECT_DOUBLE_EQ(ledger.headroom(0).value(), 0.5);
  // A second copy no longer fits; ledger unchanged by the failed attempt.
  EXPECT_FALSE(ledger.try_reserve(ok));
  EXPECT_DOUBLE_EQ(ledger.committed(0).value(), 1.5);

  ledger.release(ok);
  EXPECT_TRUE(ledger.idle());
  EXPECT_DOUBLE_EQ(ledger.headroom(0).value(), 2.0);
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

TEST(UpdateService, JointBatchRescuesABlockedEnterer) {
  // One rescue site: an enterer grabs the contested link, then a vacater
  // and a second enterer arrive while it is in flight. The second enterer
  // only fits if admission batches it with the vacater and
  // schedule_flows_jointly orders the vacate before the enter.
  WorkloadOptions wopt;
  wopt.requests = 3;
  wopt.rescue_sites = 1;
  wopt.seed = 3;
  const ServiceTrace trace = make_workload(wopt);
  UpdateService svc(trace.graph);
  const ServiceReport rep = svc.run(trace);
  EXPECT_EQ(rep.completed, 3);
  EXPECT_EQ(rep.joint_batches, 1);
  EXPECT_EQ(rep.violations, 0);
  int joint = 0;
  for (const RequestRecord& r : rep.records) joint += r.joint;
  EXPECT_EQ(joint, 2);  // the vacater and the rescued enterer
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
  EXPECT_GE(rep2.joint_batches, 1);
  EXPECT_GT(rep2.throughput_hz(), 0.0);
  EXPECT_EQ(rep1.digest(), rep2.digest());

  // The determinism contract extends to every logical metric: counters
  // (admissions, rejections, rescues, ledger reserve/release totals, ...)
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
// and max-defers rejection, joint batches, chaos faults with retries and
// the degradation ladder, plan-only mode, and fat-tree reroutes the
// guarded greedy cannot plan. The values were recorded before the service
// ran its jobs inline; a change that moves one changes some request's
// outcome, so re-pin only deliberately and say which records moved.

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

TEST(ServiceGoldenDigest, Trace400) {
  EXPECT_EQ(hex(golden_run(golden_trace_400())), "0x1c8e99cf1310ec9f");
}

TEST(ServiceGoldenDigest, Burst2000) {
  WorkloadOptions w;  // trace --requests=2000 --rate=1000 --pairs=16
  w.requests = 2000;
  w.arrival_rate_hz = 1000.0;
  w.pairs = 16;
  EXPECT_EQ(hex(golden_run(w)), "0x1a81924f6a3160d");
}

TEST(ServiceGoldenDigest, RescueTraceWithJointBatches) {
  WorkloadOptions w = golden_trace_400();
  w.conflict_density = 0.6;
  w.rescue_sites = 20;
  w.seed = 3;
  const ServiceTrace trace = make_workload(w);
  const ServiceReport rep = UpdateService(trace.graph).run(trace);
  EXPECT_GT(rep.joint_batches, 0);
  EXPECT_EQ(hex(digest_hash(rep)), "0x92ffc5578203a4a2");
}

TEST(ServiceGoldenDigest, Trace400UnderStormScenario) {
  const sim::ChaosScenario storm = io::read_scenario_file(
      std::string(CHRONUS_TESTDATA_DIR) + "/scenarios/storm.scn");
  WorkloadOptions w = golden_trace_400();
  w.chaos = &storm;
  ServiceOptions o;
  o.chaos = &storm;
  o.degradation.latency_slo = 10 * sim::kSecond;
  o.degradation.greedy_enter = 8;
  o.degradation.greedy_exit = 4;
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
  EXPECT_EQ(hex(digest_hash(rep)), "0xe6b219294648b54b");
}

TEST(ServiceGoldenDigest, Trace400PlanOnly) {
  ServiceOptions o;
  o.execute = false;
  EXPECT_EQ(hex(golden_run(golden_trace_400(), o)), "0x81c230d4693ed38f");
}

TEST(ServiceGoldenDigest, FatTreeWithUnplannableReroutes) {
  const net::FatTree ft = net::fat_tree(8, net::Capacity{4.0});
  util::Rng rng(20170605);
  std::vector<UpdateRequest> requests;
  int unplannable = 0;
  while (requests.size() < 200) {
    const std::size_t pod_a = rng.index(8);
    std::size_t pod_b = rng.index(7);
    if (pod_b >= pod_a) ++pod_b;
    const NodeId src = ft.edge[pod_a][rng.index(ft.edge[pod_a].size())];
    const NodeId dst = ft.edge[pod_b][rng.index(ft.edge[pod_b].size())];
    const net::Demand demand{0.5 + static_cast<double>(rng.index(17)) / 16.0};
    const auto inst = net::random_reroute(ft.graph, src, dst, demand, rng);
    if (!inst) continue;
    UpdateRequest r;
    r.id = requests.size();
    r.arrival = static_cast<sim::SimTime>(r.id) * 10 * sim::kMillisecond;
    r.demand = demand;
    r.p_init = inst->p_init();
    r.p_fin = inst->p_fin();
    // Plannable iff the guarded greedy finds an order within the request's
    // own reservation on an idle network.
    const net::UpdateInstance alone = net::UpdateInstance::from_paths(
        CapacityLedger(ft.graph).restricted_graph(
            ft.graph,
            transition_footprint(ft.graph, r.p_init, r.p_fin, r.demand)),
        r.p_init, r.p_fin, r.demand);
    unplannable += core::greedy_schedule(alone, ServiceOptions{}.greedy)
                       .feasible() ? 0 : 1;
    requests.push_back(std::move(r));
  }
  ASSERT_GT(unplannable, 0);
  const ServiceReport rep = UpdateService(ft.graph).run(requests);
  EXPECT_EQ(rep.violations, 0);
  EXPECT_EQ(hex(digest_hash(rep)), "0xc7e8d53d8af26ee3");
}

}  // namespace
}  // namespace chronus::service
