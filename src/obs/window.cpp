#include "obs/window.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

namespace repflow::obs {

namespace {

/// Prometheus rate() semantics: a cumulative series that went backwards
/// restarted, so the delta since the restart is the current value.
double monotonic_delta(double prev, double cur) {
  return cur >= prev ? cur - prev : cur;
}

std::uint64_t monotonic_delta(std::uint64_t prev, std::uint64_t cur) {
  return cur >= prev ? cur - prev : cur;
}

}  // namespace

double WindowSnapshot::rate(const std::string& name) const {
  const auto it = rates.find(name);
  return it == rates.end() ? 0.0 : it->second;
}

WindowedHistogram WindowSnapshot::windowed(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? WindowedHistogram{} : it->second;
}

WindowSnapshot snapshot_diff(const MetricsSnapshot& prev,
                             const MetricsSnapshot& cur, double window_ms) {
  WindowSnapshot w;
  w.window_ms = window_ms;
  const double seconds = std::max(window_ms, 1e-9) / 1000.0;

  for (const auto& [name, value] : cur.counters) {
    const auto it = prev.counters.find(name);
    const std::uint64_t delta =
        it == prev.counters.end() ? value : monotonic_delta(it->second, value);
    w.rates[name] = static_cast<double>(delta) / seconds;
  }
  for (const auto& [name, value] : cur.accumulations) {
    const auto it = prev.accumulations.find(name);
    const double delta = it == prev.accumulations.end()
                             ? value
                             : monotonic_delta(it->second, value);
    w.rates[name] = delta / seconds;
  }
  w.gauges = cur.gauges;

  for (const auto& [name, data] : cur.histograms) {
    WindowedHistogram wh;
    const auto it = prev.histograms.find(name);
    const MetricsSnapshot::HistogramData* before =
        it == prev.histograms.end() ? nullptr : &it->second;
    wh.count = before ? monotonic_delta(before->summary.count,
                                        data.summary.count)
                      : data.summary.count;
    wh.sum_ms = before
                    ? monotonic_delta(before->summary.sum, data.summary.sum)
                    : data.summary.sum;
    if (wh.count > 0) {
      wh.mean_ms = wh.sum_ms / static_cast<double>(wh.count);
      // Percentiles over only the window's observations: subtract the
      // bucket counts.  A restarted histogram (count went backwards) keeps
      // the current buckets wholesale, matching the delta rule above.
      std::vector<std::uint64_t> delta_counts(data.bucket_counts);
      if (before && data.summary.count >= before->summary.count &&
          before->bucket_counts.size() == data.bucket_counts.size()) {
        for (std::size_t i = 0; i < delta_counts.size(); ++i) {
          delta_counts[i] -= std::min(before->bucket_counts[i],
                                      delta_counts[i]);
        }
      }
      constexpr double kInf = std::numeric_limits<double>::infinity();
      wh.p50_ms = percentile_from_buckets(data.bucket_bounds, delta_counts,
                                          0.50, 0.0, kInf);
      wh.p95_ms = percentile_from_buckets(data.bucket_bounds, delta_counts,
                                          0.95, 0.0, kInf);
      wh.p99_ms = percentile_from_buckets(data.bucket_bounds, delta_counts,
                                          0.99, 0.0, kInf);
    }
    w.histograms[name] = wh;
  }
  return w;
}

WindowSnapshot WindowedAggregator::tick(const MetricsSnapshot& cur,
                                        double elapsed_ms) {
  support::MutexLock lock(mutex_);
  WindowSnapshot w = has_prev_ ? snapshot_diff(prev_, cur, elapsed_ms)
                               : snapshot_diff(MetricsSnapshot{}, cur,
                                               elapsed_ms);
  prev_ = cur;
  has_prev_ = true;
  w.seq = latest_.seq + 1;
  latest_ = w;
  return w;
}

WindowSnapshot WindowedAggregator::tick_global() {
  const auto now = std::chrono::steady_clock::now();
  double elapsed_ms = 0.0;
  {
    support::MutexLock lock(mutex_);
    if (has_last_tick_) {
      elapsed_ms =
          std::chrono::duration<double, std::milli>(now - last_tick_).count();
    }
    last_tick_ = now;
    has_last_tick_ = true;
  }
  return tick(Registry::global().snapshot(), elapsed_ms);
}

WindowSnapshot WindowedAggregator::latest() const {
  support::MutexLock lock(mutex_);
  return latest_;
}

std::uint64_t WindowedAggregator::windows() const {
  support::MutexLock lock(mutex_);
  return latest_.seq;
}

}  // namespace repflow::obs
