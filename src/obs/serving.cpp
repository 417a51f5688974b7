#include "obs/serving.h"

namespace repflow::obs {

DiskInstruments& DiskInstruments::global() {
  static DiskInstruments instruments;
  return instruments;
}

DiskInstrument& DiskInstruments::resolve(std::size_t idx) {
  support::MutexLock lock(mutex_);
  // mo: relaxed — under mutex_ a racing registration is impossible; this
  // load only detects a first-touch we lost the race to, and that slot was
  // published (release) before the loser could acquire mutex_.
  DiskInstrument* slot = slots_[idx].load(std::memory_order_relaxed);
  if (slot != nullptr) return *slot;
  const std::string prefix =
      idx < static_cast<std::size_t>(kMaxTracked)
          ? "disk." + std::to_string(idx)
          : std::string("disk.overflow");
  Registry& registry = Registry::global();
  owned_.push_back(DiskInstrument{
      registry.accumulator(prefix + ".busy_ms"),
      registry.counter(prefix + ".assigned_buckets"),
      registry.counter(prefix + ".capacity_steps")});
  DiskInstrument* fresh = &owned_.back();
  // mo: release — publishes the fully constructed bundle to the lock-free
  // acquire loads in disk().
  slots_[idx].store(fresh, std::memory_order_release);
  return *fresh;
}

}  // namespace repflow::obs
