// Small sample statistics and the result line of one benchmark run.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace chronus::perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// How many samples of `n` lie strictly above the nearest-rank p-th
/// percentile's rank.
std::size_t samples_beyond(std::size_t n, double p);

double mean(const std::vector<double>& v);

/// Process user+system CPU seconds so far.
double process_cpu_seconds();

/// Peak resident set size of the process so far, in MiB (VmHWM).
double peak_rss_mib();

/// The run's result: the JSON object the last stdout line carries.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// (name, value, unit) in print order.
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  std::string to_json() const;
};

}  // namespace chronus::perfbench
