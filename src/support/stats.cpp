#include "support/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace repflow {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nab = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nab;
  mean_ = (na * mean_ + nb * other.mean_) / nab;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double percentile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("percentile_sorted: q outside [0,1]");
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Summary summarize(std::span<const double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  // The mean is the total in input order over the count, so a caller
  // summing the same samples in the same order reads the same mean.
  RunningStats rs;
  for (double x : samples) rs.add(x);
  s.total = rs.total();
  s.mean = s.total / static_cast<double>(s.count);
  s.stddev = rs.stddev();
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = percentile_sorted(sorted, 0.25);
  s.median = percentile_sorted(sorted, 0.50);
  s.p75 = percentile_sorted(sorted, 0.75);
  s.p95 = percentile_sorted(sorted, 0.95);
  s.p99 = percentile_sorted(sorted, 0.99);
  return s;
}

std::string Summary::to_string() const {
  std::ostringstream os;
  os << "n=" << count << " mean=" << mean << " sd=" << stddev
     << " min=" << min << " med=" << median << " p95=" << p95
     << " max=" << max;
  return os.str();
}

}  // namespace repflow
