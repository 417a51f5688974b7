// SLO watchdog: declarative latency / rate objectives evaluated per window.
//
// An SloObjective names a windowed series (a histogram percentile or a
// counter-rate ratio) and a bound.  The watchdog evaluates every objective
// against each WindowSnapshot the aggregator produces, flips a process
// health bit when any objective is out of bounds, and counts breaches into
// `slo.breaches` (plus a per-objective `slo.<name>.breaches`).  The HTTP
// exporter's /healthz endpoint reports the watchdog verdict, so a scrape
// target turns unhealthy the window an objective degrades and recovers the
// window it clears.
//
// Objectives intentionally stay declarative (data, not callbacks): they can
// be listed on /healthz, logged, and round-tripped through tests.
//
// Runs unchanged with the kill switch off (obs::kEnabled false): windows are
// empty there, so objectives never fire and the watchdog reports healthy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/window.h"
#include "support/thread_annotations.h"

namespace repflow::obs {

/// What a latency objective bounds.
enum class SloPercentile : std::uint8_t { kP50, kP95, kP99 };

/// One declarative objective over windowed telemetry.
struct SloObjective {
  /// Stable handle used in metrics (`slo.<name>.breaches`) and /healthz.
  std::string name;
  /// Which windowed series to evaluate:
  ///  - latency: `metric` is a histogram name; the windowed percentile must
  ///    stay <= bound (ms).  Windows with zero observations pass.
  ///  - ratio: `metric` / `denominator` are counter (or accumulator) names;
  ///    the ratio of their windowed rates must stay <= bound.  Windows where
  ///    the denominator rate is zero pass.
  std::string metric;
  std::string denominator;  ///< empty => latency objective
  SloPercentile percentile = SloPercentile::kP95;
  double bound = 0.0;

  bool is_ratio() const { return !denominator.empty(); }
};

/// Convenience constructors for the two objective shapes.
SloObjective slo_latency(std::string name, std::string histogram,
                         SloPercentile percentile, double bound_ms);
SloObjective slo_ratio(std::string name, std::string numerator,
                       std::string denominator, double bound);

/// Evaluation of one objective against one window.
struct SloVerdict {
  std::string name;
  bool ok = true;
  double observed = 0.0;  ///< the percentile or ratio that was compared
  double bound = 0.0;
};

/// Evaluate `objective` against `window` (pure; used by the watchdog and
/// directly testable).
SloVerdict evaluate_slo(const SloObjective& objective,
                        const WindowSnapshot& window);

/// Holds the objective list and the latest verdicts; observe() is called by
/// whoever drives the window cadence (the exporter ticker, a bench loop, a
/// test).  Thread-safe.
class SloWatchdog {
 public:
  SloWatchdog() = default;
  explicit SloWatchdog(std::vector<SloObjective> objectives);

  void add(SloObjective objective) REPFLOW_EXCLUDES(mutex_);

  /// Evaluate all objectives against `window`, update health, count
  /// breaches.  A zero-seq window is ignored (stays at the prior verdict).
  void observe(const WindowSnapshot& window) REPFLOW_EXCLUDES(mutex_);

  /// True when the most recent observed window satisfied every objective
  /// (vacuously true before the first window or with no objectives).
  bool healthy() const REPFLOW_EXCLUDES(mutex_);

  /// Latest per-objective verdicts (empty before the first observe()).
  std::vector<SloVerdict> verdicts() const REPFLOW_EXCLUDES(mutex_);

  /// Total objective-window breaches counted so far.
  std::uint64_t breaches() const REPFLOW_EXCLUDES(mutex_);

  std::vector<SloObjective> objectives() const REPFLOW_EXCLUDES(mutex_);

 private:
  // mutex_ guards the objective list and the latest evaluation state
  // (compile-time checked; see support/thread_annotations.h).
  mutable support::Mutex mutex_;
  std::vector<SloObjective> objectives_ REPFLOW_GUARDED_BY(mutex_);
  std::vector<SloVerdict> verdicts_ REPFLOW_GUARDED_BY(mutex_);
  bool healthy_ REPFLOW_GUARDED_BY(mutex_) = true;
  std::uint64_t breaches_ REPFLOW_GUARDED_BY(mutex_) = 0;
};

/// One-line JSON health report (`{"healthy":true,...}`) for /healthz.
std::string slo_health_json(const SloWatchdog& watchdog);

}  // namespace repflow::obs
