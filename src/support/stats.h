// Streaming and batch summary statistics for benchmark reporting.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace repflow {

/// Welford-style running accumulator: mean/variance/min/max without storing
/// the samples.  Used for per-(N, load) runtime aggregation in the benches.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double total() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Batch summary of a sample vector, including order statistics.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double total = 0.0;

  std::string to_string() const;
};

/// Compute a Summary; the input is copied (it must be sorted internally).
Summary summarize(std::span<const double> samples);

/// Linear-interpolated percentile of a *sorted* sample span, q in [0, 1].
double percentile_sorted(std::span<const double> sorted, double q);

}  // namespace repflow
