// Disk allocations of an N x N grid onto N disks, plus replicated
// (multi-copy) allocations.
//
// Terminology follows the paper (Section II-C): the data space is an N x N
// grid of buckets; a declustering scheme assigns every bucket to one of N
// disks; replication assigns each bucket `c` disks, one per copy.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace repflow::decluster {

using BucketId = std::int32_t;  // row * N + col
using DiskId = std::int32_t;

/// A single-copy allocation: an N x N matrix of disk ids in [0, N).
class Allocation {
 public:
  Allocation(std::int32_t grid_n, std::int32_t num_disks);

  std::int32_t grid_n() const { return grid_n_; }
  std::int32_t num_disks() const { return num_disks_; }
  std::int32_t num_buckets() const { return grid_n_ * grid_n_; }

  DiskId disk_of(std::int32_t row, std::int32_t col) const {
    return disk_[index(row, col)];
  }
  DiskId disk_of_bucket(BucketId b) const { return disk_[b]; }
  void set_disk(std::int32_t row, std::int32_t col, DiskId d) {
    disk_[index(row, col)] = d;
  }

  /// True when every disk id is within range.
  bool is_well_formed() const;

  /// True when every disk holds exactly N buckets (a balanced allocation;
  /// all deterministic schemes in this repo satisfy it, RDA need not).
  bool is_balanced() const;

  /// Per-disk bucket counts.
  std::vector<std::int32_t> disk_histogram() const;

  std::string to_string() const;

 private:
  std::size_t index(std::int32_t row, std::int32_t col) const {
    return static_cast<std::size_t>(row) * grid_n_ + col;
  }
  std::int32_t grid_n_;
  std::int32_t num_disks_;
  std::vector<DiskId> disk_;
};

/// How copies map onto the physical disk set.
enum class SiteMapping {
  kCopyPerSite,  ///< copy k lives on site k: global disk = k*N + local
                 ///< (the paper's 2-site generalized experiments)
  kSingleSite,   ///< all copies share one set of N disks (basic problem [18])
};

/// A `c`-copy replicated allocation plus the copy-to-disk-set mapping.
class ReplicatedAllocation {
 public:
  ReplicatedAllocation(std::vector<Allocation> copies, SiteMapping mapping);

  std::int32_t copies() const { return static_cast<std::int32_t>(copies_.size()); }
  std::int32_t grid_n() const { return copies_.front().grid_n(); }
  SiteMapping mapping() const { return mapping_; }

  /// Total number of physical disks addressed by global disk ids.
  std::int32_t total_disks() const;

  const Allocation& copy(std::int32_t k) const { return copies_[k]; }

  /// Global disk ids holding bucket (row, col), one per copy, in copy order.
  /// With kSingleSite mapping the ids may repeat if two copies collide on a
  /// disk; replica_disks_unique() deduplicates.
  std::vector<DiskId> replica_disks(std::int32_t row, std::int32_t col) const;
  /// unique_replicas(row * N + col) as a vector.
  std::vector<DiskId> replica_disks_unique(std::int32_t row,
                                           std::int32_t col) const;
  /// The distinct global disk ids holding `bucket` (row * N + col, within
  /// the grid), ascending.  Built once by the constructor.
  std::span<const DiskId> unique_replicas(BucketId bucket) const {
    return {unique_disks_.data() + unique_begin_[bucket],
            unique_disks_.data() + unique_begin_[bucket + 1]};
  }

  /// True when each (copy-0 disk, copy-1 disk) pair appears exactly once
  /// across the grid — the defining property of orthogonal allocations.
  /// Requires exactly two copies.
  bool is_orthogonal() const;

 private:
  /// replica_disks() into `out`, reusing its capacity.
  void replica_disks_into(std::int32_t row, std::int32_t col,
                          std::vector<DiskId>& out) const;

  std::vector<Allocation> copies_;
  SiteMapping mapping_;
  // Bucket b's unique_replicas() are unique_disks_[unique_begin_[b],
  // unique_begin_[b + 1]).
  std::vector<std::size_t> unique_begin_;
  std::vector<DiskId> unique_disks_;
};

}  // namespace repflow::decluster
