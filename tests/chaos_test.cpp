// The chaos soak engine and the graceful-degradation ladder: scenario
// parsing and round-tripping, the pure-arithmetic compilation of phases
// into FaultModels (flap windows, skew ramps, surge stacking), and the
// end-to-end determinism contracts — a quiet campaign is bit-identical to
// a clean serve run, and a nonzero campaign replayed from its seed
// reproduces the identical degradation-mode sequence and logical metrics
// slice.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "io/scenario_io.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "service/workload.hpp"
#include "sim/chaos.hpp"
#include "util/contracts.hpp"

namespace chronus::sim {
namespace {

ChaosScenario parse(const std::string& text) {
  std::istringstream in(text);
  return io::read_scenario(in);
}

// --- Scenario text format.

TEST(ScenarioIo, ParsesAFullScript) {
  const ChaosScenario s = parse(
      "# comment\n"
      "scenario storm seed=7\n"
      "fault drop=0.01 straggler=0.05 straggler_mult=8\n"
      "phase burst from=2s until=6s drop=0.05 reject=0.02 surge=2.5\n"
      "flap sw=3 period=500ms down=100ms offset=50ms\n"
      "outage sw=1 from=3s until=4s\n"
      "phase ramp from=6s until=10s skew_begin=100 skew_end=2ms\n");
  EXPECT_EQ(s.name, "storm");
  EXPECT_EQ(s.seed, 7u);
  EXPECT_DOUBLE_EQ(s.base.drop_rate, 0.01);
  EXPECT_DOUBLE_EQ(s.base.straggler_multiplier, 8.0);
  ASSERT_EQ(s.phases.size(), 2u);
  const ChaosPhase& burst = s.phases[0];
  EXPECT_EQ(burst.from, 2 * kSecond);
  EXPECT_EQ(burst.until, 6 * kSecond);
  EXPECT_DOUBLE_EQ(burst.arrival_surge, 2.5);
  ASSERT_EQ(burst.flaps.size(), 1u);
  EXPECT_EQ(burst.flaps[0].sw, 3u);
  EXPECT_EQ(burst.flaps[0].period, 500 * kMillisecond);
  EXPECT_EQ(burst.flaps[0].down, 100 * kMillisecond);
  EXPECT_EQ(burst.flaps[0].offset, 50 * kMillisecond);
  ASSERT_EQ(burst.outages.size(), 1u);
  EXPECT_EQ(burst.outages[0].sw, 1u);
  EXPECT_EQ(burst.outages[0].from, 3 * kSecond);
  const ChaosPhase& ramp = s.phases[1];
  EXPECT_EQ(ramp.skew_begin, 100);
  EXPECT_EQ(ramp.skew_end, 2 * kMillisecond);
  EXPECT_EQ(s.horizon(), 10 * kSecond);
  EXPECT_FALSE(s.quiet());
}

TEST(ScenarioIo, RoundTrips) {
  const std::string text =
      "scenario storm seed=7\n"
      "fault drop=0.01 straggler=0.05 straggler_mult=8\n"
      "phase burst from=0 until=3000000 drop=0.08 reject=0.05 surge=2\n"
      "flap sw=2 period=400000 down=80000\n"
      "outage sw=5 from=1000000 until=1500000\n"
      "phase tail from=3000000 until=6000000 straggler=0.15"
      " straggler_mult=12 skew_begin=100 skew_end=500\n";
  const ChaosScenario once = parse(text);
  std::ostringstream out;
  io::write_scenario(out, once);
  const ChaosScenario twice = parse(out.str());
  std::ostringstream again;
  io::write_scenario(again, twice);
  EXPECT_EQ(out.str(), again.str());
  EXPECT_EQ(twice.phases.size(), once.phases.size());
  EXPECT_DOUBLE_EQ(twice.base.drop_rate, once.base.drop_rate);
  EXPECT_EQ(twice.phases[0].flaps[0].period, 400 * kMillisecond);
}

TEST(ScenarioIo, RejectsMalformedScriptsWithLineNumbers) {
  const auto fails_with = [](const std::string& text, const std::string& at) {
    try {
      parse(text);
      ADD_FAILURE() << "expected parse failure for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(at), std::string::npos)
          << e.what();
    }
  };
  fails_with("fault drop=0.5\n", "line 1");          // before the header
  fails_with("scenario a\nscenario b\n", "line 2");  // duplicate header
  fails_with("scenario a\nbogus x=1\n", "unknown directive");
  fails_with("scenario a\nphase p until=1s\n", "from=");
  fails_with("scenario a\nphase p from=0 until=1s drop=abc\n", "bad number");
  fails_with("scenario a\nphase p from=0 until=1s wat=1\n",
             "unknown phase attribute");
  fails_with("scenario a\nflap sw=1 period=1s down=1s\n", "before any phase");
  fails_with("scenario a\noutage sw=1 from=0 until=1s\n", "before any phase");
  fails_with("scenario a\nphase p from=0 until=1s drop=0.1 until=2x\n",
             "bad number");
  // Numbers are read in full: no wrap-around, no silent truncation, no
  // NaN, and no bare std::out_of_range.
  fails_with("scenario a seed=-1\n", "line 1: bad number in: seed=-1");
  fails_with("scenario a seed=3e4\n", "line 1: bad number in: seed=3e4");
  fails_with("scenario a\nphase p from=0 until=1s\nflap sw=-1 period=1s "
             "down=1ms\n",
             "line 3: bad number in: sw=-1");
  fails_with("scenario a\nphase p from=0 until=1s\noutage sw=4294967296 "
             "from=0 until=1s\n",
             "line 3: bad number in: sw=4294967296");
  fails_with("scenario a\nphase p from=0 until=1s drop=nan\n",
             "line 2: bad number in: drop=nan");
  fails_with("scenario a\nphase p from=0 until=1e999s\n",
             "line 2: bad number in: until=1e999s");
  fails_with("scenario a\nphase p from=0 until=1e300s\n",
             "line 2: bad number in: until=1e300s");
  fails_with("scenario a\nphase p from=0 until=0x10\n",
             "line 2: bad number in: until=0x10");
  const ChaosScenario suffixed =
      parse("scenario a\nphase p from=5us until=2.5ms\n");
  EXPECT_EQ(suffixed.phases[0].from, 5);
  EXPECT_EQ(suffixed.phases[0].until, 2500);
  // Structurally fine but semantically invalid: caught by validate().
  EXPECT_THROW(parse("scenario a\nphase p from=2s until=1s\n"),
               util::ContractViolation);
  EXPECT_THROW(parse("scenario a\nphase p from=0 until=1s drop=1.5\n"),
               util::ContractViolation);
  EXPECT_THROW(
      parse("scenario a\nphase p from=0 until=1s\nflap sw=1 period=1s "
            "down=2s\n"),
      util::ContractViolation);
  EXPECT_THROW(parse("scenario a\nphase p from=0 until=1s surge=0\n"),
               util::ContractViolation);
}

// --- Compilation: pure arithmetic from phases to FaultModels.

TEST(ChaosCompile, QuietScenarioCompilesToDisabledModels) {
  const ChaosScenario s = parse(
      "scenario calm\n"
      "phase idle from=0 until=10s\n");
  EXPECT_TRUE(s.quiet());
  for (SimTime t = 0; t <= 12 * kSecond; t += kSecond) {
    EXPECT_FALSE(s.fault_model_at(t, kSecond).enabled()) << "t=" << t;
    EXPECT_DOUBLE_EQ(s.arrival_multiplier_at(t), 1.0);
  }
}

TEST(ChaosCompile, RatesMaxMergeAcrossBaseAndActivePhases) {
  ChaosScenario s;
  s.base.drop_rate = 0.05;
  ChaosPhase weak;
  weak.name = "weak";
  weak.from = 0;
  weak.until = 10 * kSecond;
  weak.drop_rate = 0.02;  // below the floor: floor wins
  weak.reject_rate = 0.3;
  ChaosPhase strong;
  strong.name = "strong";
  strong.from = 5 * kSecond;
  strong.until = 10 * kSecond;
  strong.drop_rate = 0.2;  // above the floor: phase wins
  s.phases = {weak, strong};
  s.validate();

  const FaultModel early = s.fault_model_at(kSecond, kSecond);
  EXPECT_DOUBLE_EQ(early.drop_rate, 0.05);
  EXPECT_DOUBLE_EQ(early.reject_rate, 0.3);
  const FaultModel late = s.fault_model_at(6 * kSecond, kSecond);
  EXPECT_DOUBLE_EQ(late.drop_rate, 0.2);
  // Outside every phase the floor remains.
  const FaultModel after = s.fault_model_at(11 * kSecond, kSecond);
  EXPECT_DOUBLE_EQ(after.drop_rate, 0.05);
  EXPECT_DOUBLE_EQ(after.reject_rate, 0.0);
}

TEST(ChaosCompile, SkewRampInterpolatesLinearly) {
  const ChaosScenario s = parse(
      "scenario ramp\n"
      "phase r from=1000 until=2000 skew_begin=100 skew_end=200\n");
  EXPECT_EQ(s.fault_model_at(1000, 100).clock_drift_stddev, 100);
  EXPECT_EQ(s.fault_model_at(1500, 100).clock_drift_stddev, 150);
  EXPECT_EQ(s.fault_model_at(1999, 100).clock_drift_stddev, 199);
  // Outside the window the ramp contributes nothing.
  EXPECT_EQ(s.fault_model_at(2000, 100).clock_drift_stddev, 0);
  EXPECT_EQ(s.fault_model_at(999, 0).clock_drift_stddev, 0);
}

TEST(ChaosCompile, SurgesStackMultiplicatively) {
  const ChaosScenario s = parse(
      "scenario surge\n"
      "phase a from=0 until=4s surge=2\n"
      "phase b from=2s until=6s surge=3\n");
  EXPECT_DOUBLE_EQ(s.arrival_multiplier_at(kSecond), 2.0);
  EXPECT_DOUBLE_EQ(s.arrival_multiplier_at(3 * kSecond), 6.0);
  EXPECT_DOUBLE_EQ(s.arrival_multiplier_at(5 * kSecond), 3.0);
  EXPECT_DOUBLE_EQ(s.arrival_multiplier_at(7 * kSecond), 1.0);
}

TEST(ChaosCompile, OutagesTranslateIntoThePrivateTimeBase) {
  const ChaosScenario s = parse(
      "scenario o\n"
      "phase p from=0 until=10s\n"
      "outage sw=4 from=1s until=5s\n");
  // Admitted at 2s with a 1s span: the outage covers the whole span.
  const FaultModel mid = s.fault_model_at(2 * kSecond, kSecond);
  ASSERT_EQ(mid.forced_outage.count(4), 1u);
  EXPECT_EQ(mid.forced_outage.at(4).first, 0);
  EXPECT_EQ(mid.forced_outage.at(4).second, kSecond);
  // Admitted before the outage: the window starts mid-span.
  const FaultModel before = s.fault_model_at(0, 2 * kSecond);
  EXPECT_EQ(before.forced_outage.at(4).first, kSecond);
  EXPECT_EQ(before.forced_outage.at(4).second, 2 * kSecond);
  // Admitted after it ended: nothing to see.
  const FaultModel after = s.fault_model_at(6 * kSecond, kSecond);
  EXPECT_EQ(after.forced_outage.count(4), 0u);
}

TEST(ChaosCompile, FlapContributesItsFirstDownWindowInTheSpan) {
  const ChaosScenario s = parse(
      "scenario f\n"
      "phase p from=0 until=10s\n"
      "flap sw=2 period=1s down=200ms\n");
  // Cycles: [0,200ms), [1s,1.2s), [2s,2.2s), ...
  // Admitted at 2.5s: the next down window is [3s,3.2s) -> [500ms,700ms)
  // in the private base.
  const FaultModel m = s.fault_model_at(2500 * kMillisecond, kSecond);
  ASSERT_EQ(m.forced_outage.count(2), 1u);
  EXPECT_EQ(m.forced_outage.at(2).first, 500 * kMillisecond);
  EXPECT_EQ(m.forced_outage.at(2).second, 700 * kMillisecond);
  // Admitted inside a down window: that window itself is clipped in.
  const FaultModel in = s.fault_model_at(2100 * kMillisecond, kSecond);
  EXPECT_EQ(in.forced_outage.at(2).first, 0);
  EXPECT_EQ(in.forced_outage.at(2).second, 100 * kMillisecond);
  // A span past the phase end sees no window.
  const FaultModel out = s.fault_model_at(9900 * kMillisecond, 50);
  EXPECT_EQ(out.forced_outage.count(2), 0u);
}

TEST(ChaosCompile, OverlappingWindowsOnOneSwitchMergeToTheirHull) {
  const ChaosScenario s = parse(
      "scenario h\n"
      "phase p from=0 until=10s\n"
      "outage sw=1 from=1s until=2s\n"
      "outage sw=1 from=1500ms until=3s\n");
  const FaultModel m = s.fault_model_at(0, 5 * kSecond);
  ASSERT_EQ(m.forced_outage.count(1), 1u);
  EXPECT_EQ(m.forced_outage.at(1).first, kSecond);
  EXPECT_EQ(m.forced_outage.at(1).second, 3 * kSecond);
}

// --- The degradation policy contract.

TEST(DegradationPolicy, ValidatesThresholdOrdering) {
  service::DegradationPolicy p;
  EXPECT_FALSE(p.enabled());
  EXPECT_NO_THROW(p.validate());
  p.greedy_enter = 4;
  p.greedy_exit = 2;
  p.defer_enter = 8;
  p.defer_exit = 4;
  EXPECT_TRUE(p.enabled());
  EXPECT_NO_THROW(p.validate());
  p.greedy_exit = 4;  // exit must sit strictly below enter
  EXPECT_THROW(p.validate(), util::ContractViolation);
  p.greedy_exit = 2;
  p.defer_enter = 2;  // rungs out of order
  EXPECT_THROW(p.validate(), util::ContractViolation);
}

// --- End-to-end campaigns over the generated workload.

service::WorkloadOptions small_workload() {
  service::WorkloadOptions w;
  w.requests = 16;
  w.arrival_rate_hz = 40.0;
  w.pairs = 4;
  w.conflict_density = 0.4;
  w.seed = 11;
  return w;
}

service::ServiceOptions fast_service() {
  service::ServiceOptions o;
  o.seed = 11;
  return o;
}

struct CampaignResult {
  service::ServiceReport report;
  obs::MetricsSnapshot logical;
};

CampaignResult run_campaign(const service::WorkloadOptions& wopt,
                            const service::ServiceOptions& sopt) {
  const service::ServiceTrace trace = service::make_workload(wopt);
  obs::MetricsRegistry reg;
  CampaignResult out;
  {
    const obs::ScopedMetrics scoped(reg);
    service::UpdateService svc(trace.graph, sopt);
    out.report = svc.run(trace);
  }
  out.logical = reg.snapshot().logical();
  return out;
}

TEST(ChaosCampaign, QuietCampaignIsBitIdenticalToCleanRun) {
  const ChaosScenario quiet = parse(
      "scenario quiet\n"
      "phase idle from=0 until=30s\n");
  ASSERT_TRUE(quiet.quiet());

  service::WorkloadOptions wopt = small_workload();
  service::ServiceOptions sopt = fast_service();
  const CampaignResult clean = run_campaign(wopt, sopt);

  wopt.chaos = &quiet;
  sopt.chaos = &quiet;
  const CampaignResult quieted = run_campaign(wopt, sopt);

  EXPECT_EQ(clean.report.digest(), quieted.report.digest());
  EXPECT_TRUE(clean.logical == quieted.logical);
  EXPECT_TRUE(quieted.report.health_log.empty());
  EXPECT_EQ(quieted.report.faults_injected, 0u);
}

TEST(ChaosCampaign, NonzeroCampaignReplaysBitIdentically) {
  const ChaosScenario storm = parse(
      "scenario storm seed=9\n"
      "fault drop=0.02\n"
      "phase burst from=0 until=2s drop=0.06 reject=0.05 surge=2\n"
      "flap sw=2 period=400ms down=80ms\n"
      "phase tail from=2s until=5s straggler=0.1 straggler_mult=4\n");

  service::WorkloadOptions wopt = small_workload();
  wopt.chaos = &storm;
  service::ServiceOptions sopt = fast_service();
  sopt.chaos = &storm;
  sopt.degradation.latency_slo = 30 * kSecond;
  sopt.degradation.greedy_enter = 5;
  sopt.degradation.greedy_exit = 2;
  sopt.degradation.defer_enter = 8;
  sopt.degradation.defer_exit = 4;

  const CampaignResult once = run_campaign(wopt, sopt);
  const CampaignResult twice = run_campaign(wopt, sopt);
  EXPECT_EQ(once.report.digest(), twice.report.digest());
  EXPECT_TRUE(once.logical == twice.logical);
  ASSERT_EQ(once.report.health_log.size(), twice.report.health_log.size());
  for (std::size_t i = 0; i < once.report.health_log.size(); ++i) {
    EXPECT_EQ(once.report.health_log[i], twice.report.health_log[i]) << i;
  }
  // The campaign actually bit: faults were injected and recorded.
  EXPECT_GT(once.report.faults_injected, 0u);
  EXPECT_EQ(once.report.violations, 0);
}

TEST(ChaosCampaign, SurgeCompressesArrivalsDeterministically) {
  const ChaosScenario surge = parse(
      "scenario surge\n"
      "phase rush from=0 until=60s surge=4\n");
  service::WorkloadOptions wopt = small_workload();
  const service::ServiceTrace calm = service::make_workload(wopt);
  wopt.chaos = &surge;
  const service::ServiceTrace rushed = service::make_workload(wopt);
  const service::ServiceTrace rushed2 = service::make_workload(wopt);
  ASSERT_EQ(calm.requests.size(), rushed.requests.size());
  // Same seed, same draws: the surged trace replays exactly...
  for (std::size_t i = 0; i < rushed.requests.size(); ++i) {
    EXPECT_EQ(rushed.requests[i].arrival, rushed2.requests[i].arrival);
  }
  // ...and compresses time: the surged span is well under the calm one.
  EXPECT_LT(rushed.requests.back().arrival * 3,
            calm.requests.back().arrival);
}

// --- The ladder under pressure (no chaos required).

TEST(DegradationLadder, EscalatesShedsAndRecoversWithHysteresis) {
  // A burst far above the service rate: every request lands in epoch one.
  service::WorkloadOptions wopt = small_workload();
  wopt.requests = 24;
  wopt.arrival_rate_hz = 2000.0;
  wopt.conflict_density = 1.0;  // all contested: the queue must build
  service::ServiceOptions sopt = fast_service();
  sopt.degradation.greedy_enter = 4;
  sopt.degradation.greedy_exit = 2;
  sopt.degradation.defer_enter = 8;
  sopt.degradation.defer_exit = 4;
  sopt.degradation.shed_enter = 12;
  sopt.degradation.shed_exit = 6;

  obs::MetricsRegistry reg;
  service::ServiceReport report;
  {
    const obs::ScopedMetrics scoped(reg);
    const service::ServiceTrace trace = service::make_workload(wopt);
    service::UpdateService svc(trace.graph, sopt);
    report = svc.run(trace);
  }

  // The ladder walked: straight to shed on the burst, back down afterwards.
  ASSERT_FALSE(report.health_log.empty());
  EXPECT_EQ(report.health_log.front().second,
            service::DegradationMode::kShed);
  EXPECT_EQ(report.health_log.back().second,
            service::DegradationMode::kFull);
  // De-escalation is one rung per epoch: adjacent transitions differ by
  // exactly one rung on the way down.
  for (std::size_t i = 1; i < report.health_log.size(); ++i) {
    const int prev = static_cast<int>(report.health_log[i - 1].second);
    const int next = static_cast<int>(report.health_log[i].second);
    if (next < prev) {
      EXPECT_EQ(prev - next, 1) << "transition " << i;
    }
  }

  // Shedding actually happened, down to the exit threshold, and every
  // shed record carries the mode it was decided under.
  EXPECT_GT(report.shed, 0u);
  std::size_t shed_records = 0;
  for (const auto& rec : report.records) {
    if (rec.status == service::RequestStatus::kShedOverload) {
      ++shed_records;
      EXPECT_EQ(rec.degradation, service::DegradationMode::kShed);
    }
  }
  EXPECT_EQ(shed_records, report.shed);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("service.shed"), report.shed);
  EXPECT_EQ(snap.counters.at("service.health_transitions"),
            report.health_log.size());
  EXPECT_GT(snap.counters.at("service.degraded_epochs"), 0u);
  // Everyone is accounted for: nothing stays pending behind the ladder.
  for (const auto& rec : report.records) {
    EXPECT_NE(rec.status, service::RequestStatus::kPending) << rec.id;
  }
}

TEST(DegradationLadder, WatchdogCancelsRequestsPastTheSlo) {
  service::WorkloadOptions wopt = small_workload();
  wopt.requests = 20;
  wopt.arrival_rate_hz = 2000.0;
  wopt.conflict_density = 1.0;
  wopt.deadline = 0;  // no admission deadline: the watchdog is on its own
  service::ServiceOptions sopt = fast_service();
  sopt.degradation.latency_slo = 800 * kMillisecond;

  obs::MetricsRegistry reg;
  service::ServiceReport report;
  {
    const obs::ScopedMetrics scoped(reg);
    const service::ServiceTrace trace = service::make_workload(wopt);
    service::UpdateService svc(trace.graph, sopt);
    report = svc.run(trace);
  }

  EXPECT_GT(report.watchdog_cancelled, 0u);
  for (const auto& rec : report.records) {
    if (rec.status == service::RequestStatus::kWatchdogTimeout) {
      // Cancelled strictly after the SLO elapsed, by the dispatcher.
      EXPECT_GT(rec.completed - rec.arrival, sopt.degradation.latency_slo);
    }
    EXPECT_NE(rec.status, service::RequestStatus::kPending) << rec.id;
  }
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("service.watchdog_fires"),
            report.watchdog_cancelled);

  // The same overload replays bit-identically, watchdog included.
  obs::MetricsRegistry reg2;
  service::ServiceReport again;
  {
    const obs::ScopedMetrics scoped(reg2);
    const service::ServiceTrace trace = service::make_workload(wopt);
    service::UpdateService svc(trace.graph, sopt);
    again = svc.run(trace);
  }
  EXPECT_EQ(report.digest(), again.digest());
  EXPECT_TRUE(reg.snapshot().logical() == reg2.snapshot().logical());
}

TEST(DegradationLadder, DisabledLadderLeavesTheDigestFormatUnchanged) {
  // A clean run's digest must not mention ladder fields at all — the
  // pre-ladder golden digests stay valid.
  const CampaignResult clean =
      run_campaign(small_workload(), fast_service());
  EXPECT_EQ(clean.report.digest().find("health|"), std::string::npos);
  EXPECT_EQ(clean.report.digest().find("full"), std::string::npos);
  EXPECT_TRUE(clean.report.health_log.empty());
}

}  // namespace
}  // namespace chronus::sim