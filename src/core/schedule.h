// Retrieval schedules: the bucket-to-disk assignment extracted from a
// completed max-flow, and its realized response time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/network.h"
#include "core/problem.h"

namespace repflow::core {

struct Schedule {
  /// Chosen replica disk per bucket (query order).
  std::vector<DiskId> assigned_disk;
  /// Buckets served per disk.
  std::vector<std::int64_t> per_disk_count;

  /// max over used disks of D + X + k*C — the query's response time.
  double response_time(const workload::SystemConfig& system) const;

  /// The disk realizing the response time (-1 for an empty schedule).
  DiskId bottleneck_disk(const workload::SystemConfig& system) const;

  std::string to_string() const;
};

/// Read the bucket->disk arcs carrying flow.  Requires a completed flow of
/// value |Q| (throws std::logic_error otherwise).
Schedule extract_schedule(const RetrievalNetwork& network);

/// Allocation-free variant: overwrite `schedule` in place (its vectors keep
/// their capacity, so extracting a same-size schedule allocates nothing).
void extract_schedule_into(const RetrievalNetwork& network,
                           Schedule& schedule);

}  // namespace repflow::core
