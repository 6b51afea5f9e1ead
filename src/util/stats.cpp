#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/contracts.hpp"

namespace chronus::util {

void Summary::add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

void Summary::add_all(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_valid_ = false;
}

double Summary::sum() const {
  double s = 0.0;
  for (double x : samples_) s += x;
  return s;
}

double Summary::mean() const {
  return samples_.empty() ? 0.0 : sum() / static_cast<double>(count());
}

double Summary::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

void Summary::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Summary::min() const {
  CHRONUS_EXPECTS(!samples_.empty(), "Summary::min on empty set");
  ensure_sorted();
  return sorted_.front();
}

double Summary::max() const {
  CHRONUS_EXPECTS(!samples_.empty(), "Summary::max on empty set");
  ensure_sorted();
  return sorted_.back();
}

double Summary::percentile(double p) const {
  CHRONUS_EXPECTS(!samples_.empty(), "Summary::percentile on empty set");
  CHRONUS_EXPECTS(p >= 0.0 && p <= 100.0, "percentile out of [0, 100]");
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

BoxStats Summary::box() const {
  BoxStats b;
  if (samples_.empty()) return b;
  b.min = min();
  b.q1 = percentile(25);
  b.median = percentile(50);
  b.q3 = percentile(75);
  b.max = max();
  b.mean = mean();
  b.count = count();
  return b;
}

Cdf::Cdf(std::vector<double> samples) : samples_(std::move(samples)) {
  std::sort(samples_.begin(), samples_.end());
}

double Cdf::at(double x) const {
  if (samples_.empty()) return 0.0;
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Cdf::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error("Cdf::quantile on empty set");
  if (q <= 0.0 || q > 1.0) throw std::invalid_argument("quantile out of range");
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples_.size()))) - 1;
  return samples_[std::min(rank, samples_.size() - 1)];
}

std::vector<std::pair<double, double>> Cdf::points() const {
  std::vector<std::pair<double, double>> pts;
  pts.reserve(samples_.size());
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    pts.emplace_back(samples_[i],
                     static_cast<double>(i + 1) / static_cast<double>(samples_.size()));
  }
  return pts;
}

std::string fmt(double x, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, x);
  return buf;
}

}  // namespace chronus::util
