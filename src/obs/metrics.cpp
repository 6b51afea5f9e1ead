#include "obs/metrics.hpp"

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string_view>

#include "util/json_writer.hpp"

namespace chronus::obs {

namespace {

std::atomic<MetricsRegistry*> g_registry{nullptr};

// Per-thread mute depth (MetricsMute nests): contract scans silence only
// the thread running them, never other threads.
thread_local int t_mute_depth = 0;

bool metrics_vetoed() {
  const char* env = std::getenv("CHRONUS_METRICS");
  return env != nullptr &&
         (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0);
}

}  // namespace

MetricsRegistry* install(MetricsRegistry* r) {
  if (r != nullptr && metrics_vetoed()) {
    return g_registry.exchange(nullptr, std::memory_order_acq_rel);
  }
  return g_registry.exchange(r, std::memory_order_acq_rel);
}

MetricsRegistry* registry() noexcept {
  MetricsRegistry* r = g_registry.load(std::memory_order_relaxed);
  // Disabled path stays one relaxed load + branch; the thread-local mute
  // check only runs when a registry is actually installed.
  if (r == nullptr) return nullptr;
  return t_mute_depth > 0 ? nullptr : r;
}

namespace detail {

void push_mute() noexcept { ++t_mute_depth; }
void pop_mute() noexcept { --t_mute_depth; }

}  // namespace detail

Counter& MetricsRegistry::counter(const std::string& name) {
  const util::MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const util::MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  const util::MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const util::MutexLock lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) {
    snap.gauges[name] = {g->value(), g->max()};
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData d;
    d.count = h->count();
    d.sum = h->sum();
    d.max = h->max();
    d.buckets.reserve(Histogram::kBuckets);
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      d.buckets.push_back(h->bucket(i));
    }
    snap.histograms[name] = std::move(d);
  }
  return snap;
}

bool MetricsSnapshot::is_wall_metric(const std::string& name) {
  static constexpr std::string_view kSuffix = "_wall_us";
  return name.size() >= kSuffix.size() &&
         name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
             0;
}

MetricsSnapshot MetricsSnapshot::logical() const {
  MetricsSnapshot out;
  out.counters = counters;
  for (const auto& [name, h] : histograms) {
    if (!is_wall_metric(name)) out.histograms[name] = h;
  }
  return out;
}

void MetricsSnapshot::write_json(util::JsonWriter& out, bool mask_wall) const {
  for (const auto& [name, value] : counters) {
    out.begin_row();
    out.field("name", name);
    out.field("type", std::string("counter"));
    out.field("value", value);
    out.end_row();
  }
  for (const auto& [name, g] : gauges) {
    const bool mask = mask_wall;  // gauges are machine state: always volatile
    out.begin_row();
    out.field("name", name);
    out.field("type", std::string("gauge"));
    out.field("value", mask ? std::int64_t{0} : g.value);
    out.field("max", mask ? std::int64_t{0} : g.max);
    out.end_row();
  }
  for (const auto& [name, h] : histograms) {
    const bool mask = mask_wall && is_wall_metric(name);
    out.begin_row();
    out.field("name", name);
    out.field("type", std::string("histogram"));
    out.field("count", h.count);
    out.field("sum_us", mask ? std::int64_t{0} : h.sum);
    out.field("max_us", mask ? std::int64_t{0} : h.max);
    std::ostringstream buckets;
    if (!mask) {
      // Sparse "index:count" pairs: stable, compact and diff-friendly.
      bool first = true;
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        if (h.buckets[i] == 0) continue;
        if (!first) buckets << " ";
        first = false;
        buckets << i << ":" << h.buckets[i];
      }
    }
    out.field("buckets", buckets.str());
    out.end_row();
  }
}

MetricsSidecar::MetricsSidecar(std::string path, std::string tool)
    : path_(std::move(path)), tool_(std::move(tool)) {
  if (path_.empty()) return;
  prev_ = install(&reg_);
  installed_ = registry() == &reg_;  // false when CHRONUS_METRICS=off
}

MetricsSidecar::~MetricsSidecar() {
  if (path_.empty()) return;
  try {
    const MetricsSnapshot snap = reg_.snapshot();
    install(prev_);
    if (!installed_) return;
    util::JsonWriter out(path_, tool_);
    out.meta("kind", std::string("metrics"));
    snap.write_json(out, /*mask_wall=*/false);
  } catch (...) {  // chronus-analyzer: allow(swallowed-catch) a sidecar
    // write failure (disk full, unwritable path) must not escape a
    // destructor; the run's primary output is unaffected.
  }
}

bool MetricsSidecar::active() const noexcept { return installed_; }

}  // namespace chronus::obs
