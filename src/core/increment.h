// IncrementMinCost (paper Algorithm 3): the capacity-incrementation step
// shared by the generalized integrated algorithms.
//
// The live edge set E holds the sink arcs whose disks can still absorb more
// buckets.  Each step computes, per live disk, the completion time of its
// *next* bucket, D + X + (cap+1)*C, and increments the capacities of every
// disk achieving the minimum.  Disks whose capacity has reached their
// in-degree are removed, bounding the number of steps by O(c*|Q|).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/network.h"
#include "graph/flow_network.h"
#include "workload/disks.h"

namespace repflow::core {

class CapacityIncrementer {
 public:
  /// Empty shell; call rebind() before increment_min_cost().
  CapacityIncrementer() = default;

  /// Captures the network's *current* sink capacities as the baseline (zero
  /// after construction of a fresh network).
  explicit CapacityIncrementer(RetrievalNetwork& network);

  /// Re-capture `network`'s current sink capacities and reset the step
  /// counters.  Internal vectors retain their capacity, so re-targeting a
  /// same-footprint network performs no heap allocation.
  void rebind(RetrievalNetwork& network);

  /// One IncrementMinCost step.  Returns the minimum next-completion cost
  /// (the candidate response time just admitted).  Throws std::logic_error
  /// if no live edge remains (the caller exceeded total capacity c*|Q|).
  double increment_min_cost();

  /// Number of steps performed so far.
  std::int64_t steps() const { return steps_; }

  /// Sum of individual capacity bumps (>= steps(); ties bump several arcs).
  std::int64_t total_increments() const { return total_increments_; }

 private:
  void bump(DiskId d);

  graph::FlowNetwork* net_ = nullptr;
  const workload::SystemConfig* system_ = nullptr;
  std::span<const graph::ArcId> sink_arcs_;    // per disk
  std::span<const std::int32_t> in_degrees_;   // per disk
  std::vector<DiskId> live_;        // disks whose sink arc is still in E
  std::vector<std::int64_t> caps_;  // mirror of sink-arc capacities
  std::int64_t steps_ = 0;
  std::int64_t total_increments_ = 0;
};

}  // namespace repflow::core
