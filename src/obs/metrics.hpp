// The observability substrate: named counters, gauges and fixed-bucket
// latency histograms collected in a MetricsRegistry, plus the process-wide
// installation point the instrumented layers report through.
//
// Design rules (the overhead contract, DESIGN.md §11):
//
//  * No registry installed (the default) — every instrument site costs one
//    relaxed atomic pointer load and a predicted branch; no locks, no
//    allocation, no clock reads. Hot loops additionally aggregate into
//    plain locals and flush once per operation, so the disabled cost is
//    per *call*, not per *event*.
//  * Registry installed — instrument updates are relaxed atomic increments
//    on pre-created slots; the registry mutex is only taken on the first
//    use of a name (slot creation) and on snapshot().
//  * CHRONUS_METRICS=off in the environment vetoes installation entirely,
//    so a binary can be benchmarked with all instrumentation dark even
//    when its harness asks for a registry.
//
// Determinism: metric *values* are atomically accumulated sums, so any
// set of concurrent updaters whose logical work is deterministic produces
// bit-identical counters regardless of thread interleaving. Wall-clock
// metrics are segregated by name — anything ending in `_wall_us` holds
// machine time and is masked out of golden comparisons
// (MetricsSnapshot::write_json(mask_wall=true)); everything else is
// logical and must replay exactly (tests/obs_test.cpp).
//
// Gauges sit outside that split: logical() drops them wholesale because a
// gauge is a point-in-time level, not an accumulated history — equal end
// states don't prove equal runs, so they carry no replay signal. That
// includes `service.health_state` (the degradation rung of DESIGN.md §13):
// it *is* deterministic, and its full transition history is replay-checked
// through the report digest's health log instead. The chaos/ladder family —
// `service.shed`, `service.watchdog_fires`, `service.health_transitions`,
// `service.degraded_epochs`, `service.faults_injected` — are ordinary
// logical counters and replay bit-identically (tests/chaos_test.cpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/thread_annotations.hpp"

namespace chronus::util {
class JsonWriter;
}  // namespace chronus::util

namespace chronus::obs {

/// A monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A signed level (queue depth, in-flight reservations) with a high-water
/// mark maintained on every set/add.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    track_max(v);
  }
  void add(std::int64_t d) noexcept {
    const std::int64_t now = v_.fetch_add(d, std::memory_order_relaxed) + d;
    track_max(now);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  std::int64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

 private:
  void track_max(std::int64_t v) noexcept {
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// A fixed-bucket histogram: bucket i counts observations with
/// value < 2^i (the last bucket is unbounded). Values are clamped at 0.
/// With microsecond inputs the range spans 1 us .. ~1.1 hours, which
/// covers every latency this repo measures; count/sum/max are exact.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 33;

  /// Upper bound of bucket i (exclusive), for export and tests.
  static std::int64_t bucket_bound(std::size_t i) noexcept {
    return i + 1 >= kBuckets ? INT64_MAX : std::int64_t{1} << (i + 1);
  }

  void observe(std::int64_t value) noexcept {
    const std::int64_t v = value < 0 ? 0 : value;
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::int64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::int64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  static std::size_t bucket_index(std::int64_t v) noexcept {
    std::size_t i = 0;
    while (i + 1 < kBuckets && v >= (std::int64_t{1} << (i + 1))) ++i;
    return i;
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> max_{0};
};

/// A point-in-time copy of every instrument, safe to compare and export
/// after the run that produced it has finished.
struct MetricsSnapshot {
  struct HistogramData {
    std::uint64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t max = 0;
    std::vector<std::uint64_t> buckets;  ///< kBuckets entries

    bool operator==(const HistogramData&) const = default;
  };
  struct GaugeData {
    std::int64_t value = 0;
    std::int64_t max = 0;

    bool operator==(const GaugeData&) const = default;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeData> gauges;
  std::map<std::string, HistogramData> histograms;

  /// True iff `name` holds wall-clock time (masked in golden comparisons).
  static bool is_wall_metric(const std::string& name);

  /// One row per metric: {name, type, ...}. With `mask_wall`, wall-clock
  /// sums/maxima/buckets are zeroed (their logical counts survive) so the
  /// output is bit-stable across machines.
  void write_json(util::JsonWriter& out, bool mask_wall) const;

  /// The logical (replay-deterministic) slice: every counter, plus every
  /// non-wall histogram in full. Gauges and wall-clock durations — the
  /// only machine-dependent state — are excluded.
  MetricsSnapshot logical() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Thread-safe instrument directory. Instruments are created on first use
/// and never move or disappear until the registry is destroyed, so call
/// sites may cache the returned references while the registry is alive.
/// The directory maps are GUARDED_BY(mu_); the instruments they point at
/// are lock-free atomics, which is why returning plain references out of
/// the critical section is sound.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name) CHRONUS_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) CHRONUS_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name) CHRONUS_EXCLUDES(mu_);

  MetricsSnapshot snapshot() const CHRONUS_EXCLUDES(mu_);

 private:
  mutable util::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      CHRONUS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      CHRONUS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      CHRONUS_GUARDED_BY(mu_);
};

/// Installs `r` as the process-wide registry and returns the previous one
/// (null if none). Passing null uninstalls. When the environment sets
/// CHRONUS_METRICS=off the installation is vetoed and null stays
/// installed — the kill switch for overhead measurements.
MetricsRegistry* install(MetricsRegistry* r);

/// The installed registry, or null when observability is dark. One relaxed
/// atomic load.
MetricsRegistry* registry() noexcept;

/// RAII installation for tests and harnesses: installs on construction,
/// restores the previous registry on destruction.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry& r) : prev_(install(&r)) {}
  ~ScopedMetrics() { install(prev_); }
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  MetricsRegistry* prev_;
};

namespace detail {
void push_mute() noexcept;
void pop_mute() noexcept;
}  // namespace detail

/// Suppresses metric recording on the *calling thread* for the current
/// scope (registry() returns nullptr there; other threads are untouched).
/// Used around audit-level contract scans: a contract check may re-run
/// instrumented code (e.g. the greedy's whole-transition re-verify), and
/// the logical metric stream must stay bit-identical across contract
/// levels or replay/golden comparisons would depend on the build preset.
/// The mute must be thread-local — a global uninstall would race with
/// other threads and silently drop their samples.
class MetricsMute {
 public:
  MetricsMute() noexcept { detail::push_mute(); }
  ~MetricsMute() { detail::pop_mute(); }
  MetricsMute(const MetricsMute&) = delete;
  MetricsMute& operator=(const MetricsMute&) = delete;
};

/// Harness-side convenience used by chronus_cli and the benches: when
/// `path` is non-empty, installs a private registry for the object's
/// lifetime and writes its snapshot to `path` on destruction (a JsonWriter
/// document with one row per metric, wall-clock values included). With an
/// empty path — or under CHRONUS_METRICS=off — nothing is installed and
/// nothing is written.
class MetricsSidecar {
 public:
  MetricsSidecar(std::string path, std::string tool);
  ~MetricsSidecar();
  MetricsSidecar(const MetricsSidecar&) = delete;
  MetricsSidecar& operator=(const MetricsSidecar&) = delete;

  /// True iff the private registry is the installed one (not vetoed).
  bool active() const noexcept;

 private:
  std::string path_;
  std::string tool_;
  MetricsRegistry reg_;
  MetricsRegistry* prev_ = nullptr;
  bool installed_ = false;
};

// ---- call-site helpers -----------------------------------------------------
// All no-ops (one relaxed pointer load + branch) when no registry is
// installed. Hot loops should aggregate locally and flush once per call
// instead of calling these per event.

inline void add(const char* name, std::uint64_t n = 1) {
  if (MetricsRegistry* r = registry()) r->counter(name).add(n);
}

inline void gauge_set(const char* name, std::int64_t v) {
  if (MetricsRegistry* r = registry()) r->gauge(name).set(v);
}

inline void gauge_add(const char* name, std::int64_t d) {
  if (MetricsRegistry* r = registry()) r->gauge(name).add(d);
}

inline void observe(const char* name, std::int64_t value) {
  if (MetricsRegistry* r = registry()) r->histogram(name).observe(value);
}

/// Cached-handle lookups for hot objects: resolve once (e.g. in a
/// constructor) and test the pointer per event. The pointer stays valid
/// while the issuing registry is installed; objects constructed under a
/// ScopedMetrics must not outlive it.
inline Counter* counter_ptr(const char* name) {
  MetricsRegistry* r = registry();
  return r ? &r->counter(name) : nullptr;
}

}  // namespace chronus::obs
