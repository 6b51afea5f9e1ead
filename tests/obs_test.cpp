// Tests for the observability layer (src/obs): instrument semantics,
// registry snapshots, the install/veto lifecycle, span nesting, the
// concurrent-update hammer the ThreadSanitizer preset exercises, the
// deterministic-replay contract of the instrumented service pipeline, and
// the golden JSON export format.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "net/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "service/service.hpp"
#include "service/workload.hpp"
#include "timenet/verifier.hpp"
#include "util/json_writer.hpp"

namespace chronus {
namespace {

TEST(Counter, AccumulatesAdds) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, TracksValueAndHighWaterMark) {
  obs::Gauge g;
  g.set(3);
  g.add(4);
  g.add(-5);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 7);
  g.set(100);
  EXPECT_EQ(g.max(), 100);
}

TEST(Histogram, BucketsByPowerOfTwoAndKeepsExactMoments) {
  obs::Histogram h;
  h.observe(0);
  h.observe(1);     // bucket 0: < 2
  h.observe(3);     // bucket 1: < 4
  h.observe(1000);  // bucket 9: < 1024
  h.observe(-5);    // clamped to 0, bucket 0
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1004);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(obs::Histogram::bucket_bound(0), 2);
  EXPECT_EQ(obs::Histogram::bucket_bound(9), 1024);
  EXPECT_EQ(obs::Histogram::bucket_bound(obs::Histogram::kBuckets - 1),
            INT64_MAX);
}

TEST(MetricsRegistry, InstrumentsAreStableAcrossLookups) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x");
  reg.counter("y").add(2);
  obs::Counter& again = reg.counter("x");
  EXPECT_EQ(&a, &again);
  a.add(5);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("x"), 5u);
  EXPECT_EQ(snap.counters.at("y"), 2u);
}

TEST(MetricsRegistry, HelpersNoOpWhenNoRegistryInstalled) {
  ASSERT_EQ(obs::registry(), nullptr);
  obs::add("ghost");          // must not crash or allocate a registry
  obs::observe("ghost", 10);  // likewise
  EXPECT_EQ(obs::counter_ptr("ghost"), nullptr);
  EXPECT_EQ(obs::registry(), nullptr);
}

TEST(MetricsRegistry, ScopedInstallRoutesHelpersAndRestores) {
  obs::MetricsRegistry reg;
  {
    const obs::ScopedMetrics scope(reg);
    EXPECT_EQ(obs::registry(), &reg);
    obs::add("hits", 3);
    obs::gauge_set("depth", 7);
    obs::observe("lat_us", 100);
  }
  EXPECT_EQ(obs::registry(), nullptr);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("hits"), 3u);
  EXPECT_EQ(snap.gauges.at("depth").value, 7);
  EXPECT_EQ(snap.histograms.at("lat_us").count, 1u);
}

TEST(MetricsRegistry, MetricsMuteSilencesOnlyTheCallingThread) {
  obs::MetricsRegistry reg;
  const obs::ScopedMetrics scope(reg);
  obs::add("audible");
  {
    const obs::MetricsMute mute;
    EXPECT_EQ(obs::registry(), nullptr);
    obs::add("audible");  // dropped: contract scans must not perturb metrics
    // Concurrent workers must keep recording while this thread is muted.
    std::thread other([] { obs::add("audible"); });
    other.join();
  }
  EXPECT_EQ(obs::registry(), &reg);
  EXPECT_EQ(reg.snapshot().counters.at("audible"), 2u);
}

TEST(MetricsRegistry, EnvironmentKillSwitchVetoesInstall) {
  ASSERT_EQ(setenv("CHRONUS_METRICS", "off", 1), 0);
  obs::MetricsRegistry reg;
  {
    const obs::ScopedMetrics scope(reg);
    EXPECT_EQ(obs::registry(), nullptr);
    obs::add("dark");
  }
  ASSERT_EQ(unsetenv("CHRONUS_METRICS"), 0);
  EXPECT_TRUE(reg.snapshot().counters.empty());
}

TEST(MetricsSnapshot, LogicalSliceDropsWallAndGaugeState) {
  obs::MetricsRegistry reg;
  reg.counter("a.calls").add(2);
  reg.gauge("queue").set(5);
  reg.histogram("virtual_us").observe(10);
  reg.histogram("span.x_wall_us").observe(1234);
  const obs::MetricsSnapshot logical = reg.snapshot().logical();
  EXPECT_EQ(logical.counters.size(), 1u);
  EXPECT_TRUE(logical.gauges.empty());
  EXPECT_EQ(logical.histograms.count("virtual_us"), 1u);
  EXPECT_EQ(logical.histograms.count("span.x_wall_us"), 0u);
  EXPECT_TRUE(obs::MetricsSnapshot::is_wall_metric("span.x_wall_us"));
  EXPECT_FALSE(obs::MetricsSnapshot::is_wall_metric("virtual_us"));
}

TEST(Span, BuildsDottedPathsAndRecordsCallCounts) {
  obs::MetricsRegistry reg;
  {
    const obs::ScopedMetrics scope(reg);
    CHRONUS_SPAN("outer");
    EXPECT_EQ(obs::Span::current()->path(), "outer");
    {
      CHRONUS_SPAN("inner");
      EXPECT_EQ(obs::Span::current()->path(), "outer.inner");
    }
    EXPECT_EQ(obs::Span::current()->path(), "outer");
  }
  EXPECT_EQ(obs::Span::current(), nullptr);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("span.outer.calls"), 1u);
  EXPECT_EQ(snap.counters.at("span.outer.inner.calls"), 1u);
  EXPECT_EQ(snap.histograms.at("span.outer_wall_us").count, 1u);
  EXPECT_EQ(snap.histograms.at("span.outer.inner_wall_us").count, 1u);
}

TEST(Span, DisabledSpanHasNoPathAndRecordsNothing) {
  ASSERT_EQ(obs::registry(), nullptr);
  CHRONUS_SPAN("ghost");
  EXPECT_EQ(obs::Span::current(), nullptr);
}

// The TSan hammer (run under the thread-sanitize preset alongside the
// ledger hammer): 8 threads pounding shared counters, a gauge and a
// histogram through a freshly installed registry, including first-use slot
// creation races. The totals are exact because updates are atomic.
TEST(MetricsRegistry, ConcurrentUpdateHammer) {
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  obs::MetricsRegistry reg;
  const obs::ScopedMetrics scope(reg);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        obs::add("hammer.hits");
        obs::add(i % 2 == 0 ? "hammer.even" : "hammer.odd");
        obs::observe("hammer.lat_us", i % 1000);
        obs::gauge_add("hammer.level", i % 2 == 0 ? 1 : -1);
        if (i % 64 == t % 64) {
          CHRONUS_SPAN("hammer.span");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("hammer.hits"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.counters.at("hammer.even") + snap.counters.at("hammer.odd"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.histograms.at("hammer.lat_us").count,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.gauges.at("hammer.level").value, 0);
}

// Deterministic replay over the full instrumented pipeline: the same
// 200-request workload run twice must produce bit-identical logical
// metrics (admissions, rejections, rescues, ledger totals, B&B and
// scheduler work counts, virtual-time latency histograms).
service::ServiceTrace replay_trace() {
  service::WorkloadOptions wopt;
  wopt.requests = 200;
  wopt.arrival_rate_hz = 40.0;
  wopt.conflict_density = 0.5;
  wopt.rescue_sites = 2;
  wopt.seed = 3;
  return service::make_workload(wopt);
}

obs::MetricsSnapshot traced_run(const service::ServiceTrace& trace) {
  obs::MetricsRegistry reg;
  const obs::ScopedMetrics scope(reg);
  const service::ServiceReport report =
      service::UpdateService(trace.graph).run(trace);
  EXPECT_EQ(report.violations, 0);
  return reg.snapshot();
}

TEST(ObsReplay, ServiceMetricsAreBitIdenticalAcrossRuns) {
  const service::ServiceTrace trace = replay_trace();
  const obs::MetricsSnapshot one = traced_run(trace).logical();
  const obs::MetricsSnapshot two = traced_run(trace).logical();
  ASSERT_FALSE(one.counters.empty());
  // Compare per metric rather than EXPECT_EQ on the snapshots so a
  // regression names the diverging counter instead of dumping raw bytes.
  for (const auto& [name, v] : one.counters) {
    const auto it = two.counters.find(name);
    if (it == two.counters.end()) {
      ADD_FAILURE() << "counter only in the first run: " << name;
    } else {
      EXPECT_EQ(v, it->second) << "counter diverged: " << name;
    }
  }
  for (const auto& [name, v] : two.counters) {
    if (one.counters.count(name) == 0) {
      ADD_FAILURE() << "counter only in the second run: " << name;
    }
  }
  for (const auto& [name, h] : one.histograms) {
    const auto it = two.histograms.find(name);
    if (it == two.histograms.end()) {
      ADD_FAILURE() << "histogram only in the first run: " << name;
      continue;
    }
    EXPECT_EQ(h.count, it->second.count) << "histogram count diverged: " << name;
    EXPECT_EQ(h.sum, it->second.sum) << "histogram sum diverged: " << name;
    EXPECT_EQ(h.max, it->second.max) << "histogram max diverged: " << name;
    EXPECT_EQ(h.buckets, it->second.buckets)
        << "histogram buckets diverged: " << name;
  }
  EXPECT_EQ(one.histograms.size(), two.histograms.size());
  EXPECT_EQ(one, two);
  // Spot-check the families the replay contract names.
  EXPECT_GT(one.counters.at("ledger.reserves"), 0u);
  EXPECT_EQ(one.counters.at("ledger.reserves"),
            one.counters.at("ledger.releases"));
  EXPECT_GT(one.counters.at("admission.rounds"), 0u);
  EXPECT_GT(one.counters.at("greedy.calls"), 0u);
  EXPECT_GT(one.counters.at("workerpool.jobs"), 0u);
  EXPECT_GT(one.histograms.at("service.request_latency_us").count, 0u);
}

// The layer readout (perfbench) finds the service's jobs at fixed span
// paths: one "workerpool.job" root per admitted single and per joint
// group, with the plan verify and the timed execution directly beneath
// it. A job span that nested under "service.run" would move every one of
// those paths.
TEST(ObsReplay, EveryServiceJobIsOneRootSpan) {
  const obs::MetricsSnapshot snap = traced_run(replay_trace());
  const auto counter = [&snap](const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const std::uint64_t groups = counter("admission.joint_groups");
  ASSERT_GT(groups, 0u);
  const std::uint64_t jobs = counter("admission.singles") + groups;
  EXPECT_EQ(counter("workerpool.jobs"), jobs);
  EXPECT_EQ(counter("span.workerpool.job.calls"), jobs);
  EXPECT_GT(counter("span.workerpool.job.verifier.transitions.calls"), 0u);
  EXPECT_GT(counter("span.workerpool.job.executor.run_timed.calls"), 0u);
  for (const auto& [name, v] : snap.counters) {
    EXPECT_FALSE(name.starts_with("span.service.run.workerpool")) << name;
  }
}

// Golden snapshot of the JSON export: a fixed-seed instance through the
// guarded greedy scheduler and the exact verifier, exported with wall
// clocks masked, must match this document byte for byte. A diff here means
// the export format (or the instrumentation of these two layers) changed —
// update the golden deliberately, never silently.
TEST(ObsExport, GoldenMaskedJsonSnapshot) {
  obs::MetricsRegistry reg;
  {
    const obs::ScopedMetrics scope(reg);
    const net::UpdateInstance inst = net::fig1_instance();
    const core::ScheduleResult res = core::greedy_schedule(inst, {});
    ASSERT_TRUE(res.feasible());
    ASSERT_TRUE(timenet::verify_transition(inst, res.schedule).ok());
  }
  std::ostringstream out;
  {
    util::JsonWriter json(out, "golden");
    reg.snapshot().write_json(json, /*mask_wall=*/true);
  }
  const std::string expected =
      "{\"bench\":\"golden\",\"rows\":[\n"
      "{\"name\":\"greedy.calls\",\"type\":\"counter\",\"value\":1},\n"
      "{\"name\":\"greedy.dep_rebuilds\",\"type\":\"counter\",\"value\":4},\n"
      "{\"name\":\"greedy.heads_expanded\",\"type\":\"counter\",\"value\":7},\n"
      "{\"name\":\"greedy.rounds\",\"type\":\"counter\",\"value\":4},\n"
      "{\"name\":\"greedy.updates\",\"type\":\"counter\",\"value\":5},\n"
      "{\"name\":\"loopcheck.invocations\",\"type\":\"counter\",\"value\":7},\n"
      "{\"name\":\"span.greedy.schedule.calls\",\"type\":\"counter\","
      "\"value\":1},\n"
      "{\"name\":\"span.verifier.transitions.calls\",\"type\":\"counter\","
      "\"value\":1},\n"
      "{\"name\":\"verifier.calls\",\"type\":\"counter\",\"value\":1},\n"
      "{\"name\":\"verifier.classes_traced\",\"type\":\"counter\","
      "\"value\":8},\n"
      "{\"name\":\"verifier.links_checked\",\"type\":\"counter\","
      "\"value\":85},\n"
      "{\"name\":\"verifier.load_pieces\",\"type\":\"counter\","
      "\"value\":10},\n"
      "{\"name\":\"verifier.violations\",\"type\":\"counter\",\"value\":0},\n"
      "{\"name\":\"span.greedy.schedule_wall_us\",\"type\":\"histogram\","
      "\"count\":1,\"sum_us\":0,\"max_us\":0,\"buckets\":\"\"},\n"
      "{\"name\":\"span.verifier.transitions_wall_us\",\"type\":\"histogram\","
      "\"count\":1,\"sum_us\":0,\"max_us\":0,\"buckets\":\"\"}\n"
      "]}\n";
  EXPECT_EQ(out.str(), expected);
}

}  // namespace
}  // namespace chronus
