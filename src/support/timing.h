// Monotonic wall-clock timing used by the benchmark harness.
//
// The paper reports "average runtime per query" in milliseconds; StopWatch
// gives millisecond-resolution accumulation over many short solver calls
// without per-call allocation.
#pragma once

#include <chrono>
#include <cstdint>

namespace repflow {

/// Simple monotonic stopwatch.  start()/stop() pairs accumulate; lap-style
/// use via elapsed_ms() while running is also supported.
class StopWatch {
 public:
  using clock = std::chrono::steady_clock;

  /// Begin (or restart) an interval.  Calling start() while already running
  /// folds the in-flight interval into the total instead of discarding it,
  /// so lap-style `start(); work; start(); ...; stop()` loses no time.
  void start() {
    const auto now = clock::now();
    if (running_) accumulated_ += now - start_;
    start_ = now;
    running_ = true;
  }

  /// Stop and fold the interval into the accumulated total.
  void stop() {
    if (!running_) return;
    accumulated_ += clock::now() - start_;
    running_ = false;
  }

  void reset() {
    accumulated_ = clock::duration::zero();
    running_ = false;
  }

  /// Accumulated time plus the in-flight interval if running, in ms.
  double elapsed_ms() const {
    auto total = accumulated_;
    if (running_) total += clock::now() - start_;
    return std::chrono::duration<double, std::milli>(total).count();
  }

 private:
  clock::time_point start_{};
  clock::duration accumulated_{clock::duration::zero()};
  bool running_ = false;
};

}  // namespace repflow
