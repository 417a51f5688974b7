#include "core/increment.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/serving.h"

namespace repflow::core {

CapacityIncrementer::CapacityIncrementer(RetrievalNetwork& network) {
  rebind(network);
}

void CapacityIncrementer::rebind(RetrievalNetwork& network) {
  net_ = &network.net();
  system_ = &network.problem().system;
  sink_arcs_ = network.sink_arcs();
  in_degrees_ = network.in_degrees();
  caps_.clear();
  caps_.reserve(sink_arcs_.size());
  live_.clear();
  for (std::size_t d = 0; d < sink_arcs_.size(); ++d) {
    caps_.push_back(net_->capacity(sink_arcs_[d]));
    // A disk already saturated by its in-degree never joins the live set
    // (Algorithm 3 lines 3-5 would delete it on the first step anyway).
    if (in_degrees_[d] > caps_.back()) live_.push_back(static_cast<DiskId>(d));
  }
  steps_ = 0;
  total_increments_ = 0;
}

void CapacityIncrementer::bump(DiskId d) {
  const auto i = static_cast<std::size_t>(d);
  ++caps_[i];
  net_->set_capacity(sink_arcs_[i], caps_[i]);
  ++total_increments_;
  // Per-disk attribution of the integrated drivers' capacity grants: this
  // is the one seam every IncrementMinCost step passes through (one acquire
  // load + one relaxed add after the first touch of disk d).
  obs::DiskInstruments::global().disk(d).capacity_steps.add(1);
}

double CapacityIncrementer::increment_min_cost() {
  const workload::SystemConfig& sys = *system_;
  // Pass 1 (Algorithm 3 lines 1-9): drop exhausted disks, find the minimum
  // next-completion cost among the survivors.
  // Infinity, not max(): a completion time that overflows to inf must
  // still be admitted, or the step bumps nothing and the driver spins.
  double min_cost = std::numeric_limits<double>::infinity();
  std::size_t alive = 0;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const DiskId d = live_[i];
    const std::int64_t cap = caps_[static_cast<std::size_t>(d)];
    if (in_degrees_[static_cast<std::size_t>(d)] <= cap) {
      continue;  // delete from E
    }
    live_[alive++] = d;
    min_cost = std::min(min_cost, sys.completion_time(d, cap + 1));
  }
  live_.resize(alive);
  if (live_.empty()) {
    throw std::logic_error(
        "IncrementMinCost: live edge set exhausted before reaching |Q|");
  }
  // Pass 2 (lines 10-12): bump every live disk achieving the minimum.
  // Both passes price a slot with the same completion_time() call, so a tie
  // is an exact equality; admitting a near-tie would stop above the optimum.
  for (const DiskId d : live_) {
    const double cost = sys.completion_time(
        d, caps_[static_cast<std::size_t>(d)] + 1);
    if (cost == min_cost) {
      bump(d);
    }
  }
  ++steps_;
  return min_cost;
}

}  // namespace repflow::core
