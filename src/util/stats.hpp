// Summary statistics used by the benchmark harness: mean/stddev/percentiles,
// box-plot five-number summaries (Fig. 9) and empirical CDFs (Fig. 11).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace chronus::util {

/// Five-number summary plus mean, as shown in the paper's box plots.
struct BoxStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  std::size_t count = 0;
};

/// Accumulates samples; all queries are over the samples seen so far.
class Summary {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double sum() const;
  double mean() const;
  double stddev() const;  ///< sample standard deviation (n-1 denominator)
  double min() const;
  double max() const;

  /// Linear-interpolated percentile, p in [0, 100].
  double percentile(double p) const;

  BoxStats box() const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Empirical CDF over a sample set.
class Cdf {
 public:
  explicit Cdf(std::vector<double> samples);

  /// P[X <= x].
  double at(double x) const;

  /// Smallest sample v with P[X <= v] >= q, q in (0, 1].
  double quantile(double q) const;

  /// Evaluation points for plotting: (value, cumulative fraction) pairs.
  std::vector<std::pair<double, double>> points() const;

  std::size_t count() const { return samples_.size(); }

 private:
  std::vector<double> samples_;  // sorted
};

/// Formats a double with fixed precision; helper for report tables.
std::string fmt(double x, int precision = 2);

}  // namespace chronus::util
