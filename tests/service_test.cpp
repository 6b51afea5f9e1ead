// Tests for the online update service: capacity-ledger reservation
// semantics (including the multi-threaded invariants the ThreadSanitizer
// preset hammers), admission control, workload generation, trace IO, and
// the end-to-end determinism contract — a 200-request trace must complete
// with zero verifier violations and a bit-identical report for any worker
// count.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/trace_io.hpp"
#include "obs/metrics.hpp"
#include "service/admission.hpp"
#include "service/capacity_ledger.hpp"
#include "service/service.hpp"
#include "service/worker_pool.hpp"
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

TEST(WorkerPool, RunsEverySubmittedJobAcrossRounds) {
  WorkerPool pool(4);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 40; ++i) {
      pool.submit([&count] { ++count; });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 40 * (round + 1));
  }
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
/// verifier violations and a bit-identical report digest for 1 and 4
/// workers.
TEST(UpdateService, TwoHundredRequestTraceIsDeterministicAndClean) {
  WorkloadOptions wopt;
  wopt.requests = 200;
  wopt.arrival_rate_hz = 40.0;
  wopt.conflict_density = 0.5;
  wopt.rescue_sites = 2;
  wopt.seed = 3;
  const ServiceTrace trace = make_workload(wopt);

  ServiceOptions one;
  one.workers = 1;
  ServiceOptions four;
  four.workers = 4;

  // Each run observes into its own registry, so the metrics surface can be
  // compared across worker counts exactly like the report digest.
  obs::MetricsRegistry reg1;
  obs::MetricsSnapshot snap1;
  ServiceReport rep1;
  {
    const obs::ScopedMetrics scope(reg1);
    rep1 = UpdateService(trace.graph, one).run(trace);
    snap1 = reg1.snapshot();
  }
  obs::MetricsRegistry reg4;
  obs::MetricsSnapshot snap4;
  ServiceReport rep4;
  {
    const obs::ScopedMetrics scope(reg4);
    rep4 = UpdateService(trace.graph, four).run(trace);
    snap4 = reg4.snapshot();
  }

  EXPECT_EQ(rep4.violations, 0);
  EXPECT_EQ(rep4.failed, 0);
  EXPECT_GT(rep4.completed, 100);
  EXPECT_GE(rep4.joint_batches, 1);
  EXPECT_GT(rep4.throughput_hz(), 0.0);
  EXPECT_EQ(rep1.digest(), rep4.digest());

  // The determinism contract extends to every logical metric: counters
  // (admissions, rejections, rescues, ledger reserve/release totals, ...)
  // and virtual-time histograms must be bit-identical; only wall-clock
  // durations and gauges may differ between worker counts.
  const obs::MetricsSnapshot logical1 = snap1.logical();
  const obs::MetricsSnapshot logical4 = snap4.logical();
  EXPECT_EQ(logical1.counters, logical4.counters);
  EXPECT_EQ(logical1.histograms, logical4.histograms);
  EXPECT_GT(logical4.counters.at("ledger.reserves"), 0u);
  EXPECT_EQ(logical4.counters.at("ledger.reserves"),
            logical4.counters.at("ledger.releases"));
  EXPECT_GT(logical4.counters.at("admission.rounds"), 0u);
  EXPECT_GT(logical4.counters.at("service.completed"), 100u);
}

}  // namespace
}  // namespace chronus::service
