// Lightweight phase tracing: RAII spans recording (name, thread, start,
// duration) into a process-global sink.
//
// Tracing is *runtime-gated*: when the tracer is disabled (the default) a
// ScopedSpan costs one relaxed atomic load — no clock reads, no lock.  When
// enabled, each span costs two steady_clock reads plus one short mutex-held
// vector append at destruction; span names must be string literals (or
// otherwise outlive the tracer) because only the pointer is stored.
//
// With the kill switch off (obs::kEnabled false, kill_switch.h) a ScopedSpan
// tests only the constant: the tracer can never be enabled, no span reads a
// clock, and spans() stays empty.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/kill_switch.h"
#include "support/thread_annotations.h"

namespace repflow::obs {

/// One completed span.  Times are milliseconds since the tracer's epoch
/// (construction or the last clear()).
struct SpanRecord {
  const char* name = "";
  int thread = 0;       ///< small dense index, first-span-wins per thread
  double start_ms = 0.0;
  double duration_ms = 0.0;
};

class Tracer {
 public:
  using clock = std::chrono::steady_clock;

  static Tracer& global();

  // mo: relaxed — the enable bit is a pure on/off level; span data is
  // published by mutex_, not by this flag, so no ordering is needed.
  void set_enabled(bool enabled) {
    if constexpr (kEnabled) enabled_.store(enabled, std::memory_order_relaxed);
  }
  // mo: relaxed — see set_enabled().
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void record(const char* name, clock::time_point start,
              clock::time_point end) REPFLOW_EXCLUDES(mutex_);

  /// Copy of all spans recorded so far, in completion order.
  std::vector<SpanRecord> spans() const REPFLOW_EXCLUDES(mutex_);

  /// Drop recorded spans and restart the epoch at now().
  void clear() REPFLOW_EXCLUDES(mutex_);

 private:
  Tracer() : epoch_(clock::now()) {}

  std::atomic<bool> enabled_{false};
  // mutex_ guards the span log, the epoch, and the dense thread-index
  // allocator (compile-time checked).
  mutable support::Mutex mutex_;
  std::vector<SpanRecord> spans_ REPFLOW_GUARDED_BY(mutex_);
  clock::time_point epoch_ REPFLOW_GUARDED_BY(mutex_);
  int next_thread_index_ REPFLOW_GUARDED_BY(mutex_) = 0;
};

/// RAII span: times the enclosing scope under `name` when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(name), active_(kEnabled && Tracer::global().enabled()) {
    if (active_) start_ = Tracer::clock::now();
  }
  ~ScopedSpan() {
    if (active_) {
      Tracer::global().record(name_, start_, Tracer::clock::now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  bool active_;
  Tracer::clock::time_point start_{};
};

}  // namespace repflow::obs
