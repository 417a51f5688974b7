// Per-disk utilization accounting, shared by the two core modules that
// fold work onto disks: ExecutionContext (the schedule-application seam)
// and CapacityIncrementer::bump.  Every solve records it, so each disk's
// handles are resolved once and cached here — the hot path never takes
// the registry mutex.  The metric names are part of the observability
// contract (docs/OBSERVABILITY.md); they are the live series the
// workload-feedback placement direction consumes:
//
//   disk.<j>.busy_ms          accumulator  service time scheduled onto disk
//                                          j (D_j + k*C_j per solve using it);
//                                          windowed rate / 1000 = utilization
//   disk.<j>.assigned_buckets counter      buckets the schedules assigned
//   disk.<j>.capacity_steps   counter      sink-capacity bumps the
//                                          integrated drivers granted disk j
//
// With the kill switch off (obs::kEnabled false) the handles record
// nothing, and DiskInstruments::disk() hands every disk one shared inert
// bundle without a lookup.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>

#include "obs/metrics.h"
#include "support/thread_annotations.h"

namespace repflow::obs {

/// Cached handles for one disk's utilization series.
struct DiskInstrument {
  Accumulator& busy_ms;
  Counter& assigned_buckets;
  Counter& capacity_steps;
};

/// Lazily resolved per-disk bundles with a lock-free steady-state read
/// path: the first touch of a disk id takes a mutex and registers the
/// `disk.<j>.*` metrics; every later touch is one acquire load.  Ids at or
/// beyond kMaxTracked share one `disk.overflow.*` bundle so a pathological
/// disk count cannot grow the registry without bound.
class DiskInstruments {
 public:
  static constexpr std::int32_t kMaxTracked = 512;

  static DiskInstruments& global();

  DiskInstrument& disk(std::int32_t j) REPFLOW_EXCLUDES(mutex_) {
    if constexpr (!kEnabled) return inert_;
    const std::size_t idx =
        j >= 0 && j < kMaxTracked ? static_cast<std::size_t>(j)
                                  : static_cast<std::size_t>(kMaxTracked);
    // mo: acquire — pairs with the release store in resolve(); observing a
    // non-null slot must also make the pointee's construction visible.
    DiskInstrument* slot = slots_[idx].load(std::memory_order_acquire);
    if (slot != nullptr) return *slot;
    return resolve(idx);
  }

 private:
  DiskInstrument& resolve(std::size_t idx) REPFLOW_EXCLUDES(mutex_);

  // With the kill switch off nothing records, so every disk shares these.
  static inline Accumulator inert_busy_ms_;
  static inline Counter inert_count_;
  static inline DiskInstrument inert_{inert_busy_ms_, inert_count_,
                                      inert_count_};

  std::atomic<DiskInstrument*> slots_[kMaxTracked + 1] = {};
  // mutex_ serializes first-touch registration; owned_ grows only under it
  // (compile-time checked).  The published pointers themselves are read
  // lock-free through slots_.
  support::Mutex mutex_;
  std::deque<DiskInstrument> owned_ REPFLOW_GUARDED_BY(mutex_);  // stable addresses
};

}  // namespace repflow::obs
