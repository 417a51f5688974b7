#include "obs/span.h"

namespace repflow::obs {

namespace {
// Dense per-thread index assigned on a thread's first recorded span; -1
// until then.  Lives outside the Tracer so record() can assign it under the
// same mutex that guards the span vector.
thread_local int t_thread_index = -1;
}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(const char* name, clock::time_point start,
                    clock::time_point end) {
  SpanRecord rec;
  rec.name = name;
  support::MutexLock lock(mutex_);
  if (t_thread_index < 0) t_thread_index = next_thread_index_++;
  rec.thread = t_thread_index;
  rec.start_ms =
      std::chrono::duration<double, std::milli>(start - epoch_).count();
  rec.duration_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  spans_.push_back(rec);
}

std::vector<SpanRecord> Tracer::spans() const {
  support::MutexLock lock(mutex_);
  return spans_;
}

void Tracer::clear() {
  support::MutexLock lock(mutex_);
  spans_.clear();
  epoch_ = clock::now();
}

}  // namespace repflow::obs
