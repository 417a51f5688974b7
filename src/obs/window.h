// Windowed snapshots: turning the cumulative registry into live series.
//
// The registry is additive for the process lifetime — perfect for "where
// did the time go" attribution, useless for "what is happening right now".
// This module closes the gap without touching any hot path: a background
// cadence (the HTTP exporter's ticker, a bench loop, a test) snapshots the
// registry, `snapshot_diff()` subtracts the previous snapshot, and the
// result is one WindowSnapshot of *rates* (counter and accumulator deltas
// per second) and *per-window histogram summaries* (count/sum/mean and
// interpolated p50/p95/p99 over only the observations that landed inside
// the window).  `WindowedAggregator` owns the previous-snapshot state and
// the newest window, which consumers (the SLO watchdog, /metrics) read
// under its lock.
//
// Counter resets (Registry::reset_values() between ticks) are handled with
// Prometheus rate() semantics: a cumulative value that went backwards is
// treated as a restart and the delta is the new value itself, so rates
// never go negative.
//
// Everything here operates on plain MetricsSnapshot data (no atomics), so
// the module runs unchanged with the kill switch off (obs::kEnabled false):
// Registry::snapshot() is empty there, and so is every window.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.h"
#include "support/thread_annotations.h"

namespace repflow::obs {

/// Distribution of one histogram's observations inside one window.
struct WindowedHistogram {
  std::uint64_t count = 0;  ///< observations in the window
  double sum_ms = 0.0;      ///< their summed value (exact)
  double mean_ms = 0.0;
  double p50_ms = 0.0;      ///< interpolated from the window's bucket deltas
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// One diffed window: rates and per-window distributions.
struct WindowSnapshot {
  std::uint64_t seq = 0;    ///< monotonic window number (1-based)
  double window_ms = 0.0;   ///< wall duration the diff covers
  /// Counter and accumulator deltas divided by the window duration, in
  /// events (or accumulated units) per second.  Keyed by metric name.
  std::map<std::string, double> rates;
  /// Gauge levels at the end of the window (last write wins).
  std::map<std::string, double> gauges;
  /// Per-window histogram summaries; histograms with zero in-window
  /// observations are still listed (count == 0) so consumers can
  /// distinguish "idle" from "unregistered".
  std::map<std::string, WindowedHistogram> histograms;

  /// Rate of `name` in events/sec, or 0 when absent.
  double rate(const std::string& name) const;
  /// Windowed summary of `name`, or a zero summary when absent.
  WindowedHistogram windowed(const std::string& name) const;
};

/// Diff two registry snapshots taken `window_ms` apart (prev before cur).
/// Metrics present only in `cur` are treated as starting from zero.
WindowSnapshot snapshot_diff(const MetricsSnapshot& prev,
                             const MetricsSnapshot& cur, double window_ms);

/// Owns the previous snapshot and the newest window.  tick() is meant to
/// be called on a background cadence; readers get copies under the same
/// mutex, so the aggregator is safe to share between the ticker thread and
/// scrape handlers.
class WindowedAggregator {
 public:
  /// Diff `cur` against the previous tick's snapshot over `elapsed_ms`; the
  /// result becomes the newest window.  The first tick establishes the
  /// baseline and yields a window with seq 1 covering everything since
  /// process start (callers that want a clean baseline should tick once at
  /// startup and discard the result).  Returns a copy of the new window.
  WindowSnapshot tick(const MetricsSnapshot& cur, double elapsed_ms)
      REPFLOW_EXCLUDES(mutex_);

  /// Convenience: snapshot the global registry and tick with the wall time
  /// since the previous tick_global() (or construction).
  WindowSnapshot tick_global() REPFLOW_EXCLUDES(mutex_);

  /// The most recent window (empty WindowSnapshot with seq 0 before the
  /// first tick).
  WindowSnapshot latest() const REPFLOW_EXCLUDES(mutex_);

  /// Windows produced so far (monotonic).
  std::uint64_t windows() const REPFLOW_EXCLUDES(mutex_);

 private:
  // mutex_ guards every member below (compile-time checked).
  mutable support::Mutex mutex_;
  MetricsSnapshot prev_ REPFLOW_GUARDED_BY(mutex_);
  bool has_prev_ REPFLOW_GUARDED_BY(mutex_) = false;
  WindowSnapshot latest_ REPFLOW_GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point last_tick_ REPFLOW_GUARDED_BY(mutex_){};
  bool has_last_tick_ REPFLOW_GUARDED_BY(mutex_) = false;
};

}  // namespace repflow::obs
