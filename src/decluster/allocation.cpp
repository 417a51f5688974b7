#include "decluster/allocation.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

namespace repflow::decluster {

Allocation::Allocation(std::int32_t grid_n, std::int32_t num_disks)
    : grid_n_(grid_n), num_disks_(num_disks) {
  if (grid_n < 1 || num_disks < 1) {
    throw std::invalid_argument("Allocation: grid_n and num_disks must be >= 1");
  }
  disk_.assign(static_cast<std::size_t>(grid_n) * grid_n, 0);
}

bool Allocation::is_well_formed() const {
  return std::all_of(disk_.begin(), disk_.end(), [&](DiskId d) {
    return d >= 0 && d < num_disks_;
  });
}

bool Allocation::is_balanced() const {
  if (!is_well_formed()) return false;
  if (num_buckets() % num_disks_ != 0) return false;
  const std::int32_t expected = num_buckets() / num_disks_;
  auto histogram = disk_histogram();
  return std::all_of(histogram.begin(), histogram.end(),
                     [&](std::int32_t n) { return n == expected; });
}

std::vector<std::int32_t> Allocation::disk_histogram() const {
  std::vector<std::int32_t> histogram(static_cast<std::size_t>(num_disks_), 0);
  for (DiskId d : disk_) {
    if (d >= 0 && d < num_disks_) ++histogram[d];
  }
  return histogram;
}

std::string Allocation::to_string() const {
  std::ostringstream os;
  for (std::int32_t i = 0; i < grid_n_; ++i) {
    for (std::int32_t j = 0; j < grid_n_; ++j) {
      os << disk_of(i, j) << (j + 1 == grid_n_ ? '\n' : ' ');
    }
  }
  return os.str();
}

ReplicatedAllocation::ReplicatedAllocation(std::vector<Allocation> copies,
                                           SiteMapping mapping)
    : copies_(std::move(copies)), mapping_(mapping) {
  if (copies_.empty()) {
    throw std::invalid_argument("ReplicatedAllocation: need >= 1 copy");
  }
  for (const auto& c : copies_) {
    if (c.grid_n() != copies_.front().grid_n() ||
        c.num_disks() != copies_.front().num_disks()) {
      throw std::invalid_argument(
          "ReplicatedAllocation: copies must share grid and disk count");
    }
    if (!c.is_well_formed()) {
      throw std::invalid_argument("ReplicatedAllocation: malformed copy");
    }
  }
  const std::int32_t n = grid_n();
  const auto buckets = static_cast<std::size_t>(n) * n;
  unique_begin_.reserve(buckets + 1);
  unique_disks_.reserve(buckets * copies_.size());
  unique_begin_.push_back(0);
  std::vector<DiskId> disks;
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      replica_disks_into(i, j, disks);
      std::sort(disks.begin(), disks.end());
      disks.erase(std::unique(disks.begin(), disks.end()), disks.end());
      unique_disks_.insert(unique_disks_.end(), disks.begin(), disks.end());
      unique_begin_.push_back(unique_disks_.size());
    }
  }
}

std::int32_t ReplicatedAllocation::total_disks() const {
  const std::int32_t per_site = copies_.front().num_disks();
  return mapping_ == SiteMapping::kCopyPerSite ? per_site * copies()
                                               : per_site;
}

std::vector<DiskId> ReplicatedAllocation::replica_disks(
    std::int32_t row, std::int32_t col) const {
  std::vector<DiskId> out;
  replica_disks_into(row, col, out);
  return out;
}

void ReplicatedAllocation::replica_disks_into(std::int32_t row,
                                              std::int32_t col,
                                              std::vector<DiskId>& out) const {
  out.clear();
  out.reserve(copies_.size());
  const std::int32_t per_site = copies_.front().num_disks();
  for (std::int32_t k = 0; k < copies(); ++k) {
    const DiskId local = copies_[k].disk_of(row, col);
    out.push_back(mapping_ == SiteMapping::kCopyPerSite ? k * per_site + local
                                                        : local);
  }
}

std::vector<DiskId> ReplicatedAllocation::replica_disks_unique(
    std::int32_t row, std::int32_t col) const {
  const auto disks = unique_replicas(row * grid_n() + col);
  return {disks.begin(), disks.end()};
}

bool ReplicatedAllocation::is_orthogonal() const {
  if (copies() != 2) return false;
  const std::int32_t n = grid_n();
  std::set<std::pair<DiskId, DiskId>> seen;
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      auto pair = std::make_pair(copies_[0].disk_of(i, j),
                                 copies_[1].disk_of(i, j));
      if (!seen.insert(pair).second) return false;
    }
  }
  return true;
}

}  // namespace repflow::decluster
