// The generalized optimal response time retrieval problem (paper Section
// II-D/E): a query's buckets, the replica disks of each bucket, and the
// per-disk cost/delay/load parameters.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "decluster/allocation.h"
#include "workload/disks.h"
#include "workload/query.h"

namespace repflow::core {

using DiskId = decluster::DiskId;

/// A fully specified problem instance.  Buckets are re-indexed 0..|Q|-1 in
/// query order; `replicas[i]` lists the global disk ids holding bucket i.
struct RetrievalProblem {
  std::vector<std::vector<DiskId>> replicas;
  workload::SystemConfig system;

  std::int64_t query_size() const {
    return static_cast<std::int64_t>(replicas.size());
  }
  std::int32_t total_disks() const { return system.total_disks(); }

  /// Throws std::invalid_argument when a bucket has no replica, a disk id is
  /// out of range, the system parameter vectors are inconsistent, or a
  /// cost, delay or load is non-finite, negative (or a cost zero).
  void validate() const;

  /// Number of query buckets holding a replica on each disk (the in-degree
  /// of the disk vertex in the flow network).
  std::vector<std::int32_t> disk_in_degrees() const;

  /// Completion time of `disk` when it serves k buckets (D + X + k*C).
  double completion_time(DiskId disk, std::int64_t k) const {
    return system.completion_time(disk, k);
  }
};

/// Throws std::invalid_argument when a bucket of `replicas` has no replica
/// or names a disk outside [0, disks): the replica half of validate().
void validate_replicas(const std::vector<std::vector<DiskId>>& replicas,
                       std::int32_t disks);

/// The per-bucket replica disk lists of `query` under `allocation`, in
/// query order, deduplicated (a bucket whose copies collide on one disk
/// contributes a single arc, matching the max-flow formulation).  Throws
/// when a bucket id falls outside the allocation grid.
std::vector<std::vector<DiskId>> replica_lists(
    const decluster::ReplicatedAllocation& allocation,
    const workload::Query& query);

/// replica_lists() into `lists` (one per bucket of `query`): each list is
/// copied from the allocation's table (unique_replicas) into its own
/// capacity, so a warm call allocates nothing.
void fill_replica_lists(const decluster::ReplicatedAllocation& allocation,
                        const workload::Query& query,
                        std::span<std::vector<DiskId>> lists);

/// Build the instance for `query` under `allocation` on `system` (the
/// replica_lists() mapping plus the system snapshot, validated).
RetrievalProblem build_problem(const decluster::ReplicatedAllocation& allocation,
                               const workload::Query& query,
                               workload::SystemConfig system);

/// The optimal response time for the *basic* problem lower bound:
/// ceil(|Q| / N) accesses on the homogeneous disk.  Only meaningful when
/// system.is_basic().
std::int64_t basic_lower_bound_accesses(const RetrievalProblem& problem);

}  // namespace repflow::core
