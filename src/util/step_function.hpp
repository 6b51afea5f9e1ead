// Piecewise-constant functions of (integer) time.
//
// StepFunction is the workhorse of the data-plane model: per-link load
// x_{u,v}(t) as flow segments come and go, and per-link byte counters as the
// integral of the rate function. Keys are int64 time units (microseconds in
// the simulator, abstract steps in the algorithms); values are doubles.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace chronus::util {

class StepFunction {
 public:
  using Time = std::int64_t;

  /// Creates f(t) == initial for all t.
  explicit StepFunction(double initial = 0.0);

  /// f(t) += delta for t in [from, to). Requires from < to.
  void add(Time from, Time to, double delta);

  /// f(t) += delta for all t >= from.
  void add_from(Time from, double delta);

  /// Value at time t.
  double at(Time t) const;

  /// Maximum over [from, to). Requires from < to.
  double max_over(Time from, Time to) const;

  /// Integral over [from, to). Requires from <= to.
  double integral(Time from, Time to) const;

  /// Earliest t in [from, to) with f(t) > threshold, or nullopt-like
  /// sentinel `to` when the function never exceeds the threshold.
  Time first_time_above(Time from, Time to, double threshold) const;

  /// Breakpoints as (time, new value) pairs. Before the first breakpoint
  /// the function equals the constructor's `initial`.
  std::vector<std::pair<Time, double>> breakpoints() const;

  /// Removes breakpoints that do not change the value (within eps).
  void normalize(double eps = 1e-12);

 private:
  double initial_;
  // Maps breakpoint time -> value from that time onward.
  std::map<Time, double> steps_;
};

}  // namespace chronus::util
