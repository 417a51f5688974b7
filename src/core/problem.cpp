#include "core/problem.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace repflow::core {

void RetrievalProblem::validate() const {
  const std::int32_t disks = total_disks();
  if (disks < 1) throw std::invalid_argument("problem: no disks");
  const auto check_size = [&](std::size_t got, const char* what) {
    if (got != static_cast<std::size_t>(disks)) {
      throw std::invalid_argument(std::string("problem: bad ") + what +
                                  " vector size");
    }
  };
  check_size(system.cost_ms.size(), "cost");
  check_size(system.delay_ms.size(), "delay");
  check_size(system.init_load_ms.size(), "init_load");
  validate_replicas(replicas, disks);
  for (std::int32_t j = 0; j < disks; ++j) {
    // NaN slips past every comparison below, and the solvers' candidate
    // search needs a strict weak order on completion times.
    if (!std::isfinite(system.cost_ms[j]) ||
        !std::isfinite(system.delay_ms[j]) ||
        !std::isfinite(system.init_load_ms[j])) {
      throw std::invalid_argument(
          "problem: non-finite cost/delay/load on disk " + std::to_string(j));
    }
    if (system.cost_ms[j] <= 0.0) {
      throw std::invalid_argument("problem: non-positive cost on disk " +
                                  std::to_string(j));
    }
    if (system.delay_ms[j] < 0.0 || system.init_load_ms[j] < 0.0) {
      throw std::invalid_argument("problem: negative delay/load on disk " +
                                  std::to_string(j));
    }
  }
}

void validate_replicas(const std::vector<std::vector<DiskId>>& replicas,
                       std::int32_t disks) {
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (replicas[i].empty()) {
      throw std::invalid_argument("problem: bucket " + std::to_string(i) +
                                  " has no replica");
    }
    for (DiskId d : replicas[i]) {
      if (d < 0 || d >= disks) {
        throw std::invalid_argument("problem: bucket " + std::to_string(i) +
                                    " references disk " + std::to_string(d));
      }
    }
  }
}

std::vector<std::int32_t> RetrievalProblem::disk_in_degrees() const {
  std::vector<std::int32_t> degree(static_cast<std::size_t>(total_disks()), 0);
  for (const auto& disks : replicas) {
    for (DiskId d : disks) ++degree[d];
  }
  return degree;
}

std::vector<std::vector<DiskId>> replica_lists(
    const decluster::ReplicatedAllocation& allocation,
    const workload::Query& query) {
  std::vector<std::vector<DiskId>> lists(query.size());
  fill_replica_lists(allocation, query, lists);
  return lists;
}

void fill_replica_lists(const decluster::ReplicatedAllocation& allocation,
                        const workload::Query& query,
                        std::span<std::vector<DiskId>> lists) {
  const std::int32_t n = allocation.grid_n();
  for (std::size_t i = 0; i < query.size(); ++i) {
    const decluster::BucketId b = query[i];
    if (b < 0 || b >= n * n) {
      throw std::invalid_argument("replica_lists: bucket id out of grid");
    }
    const auto disks = allocation.unique_replicas(b);
    lists[i].assign(disks.begin(), disks.end());
  }
}

RetrievalProblem build_problem(
    const decluster::ReplicatedAllocation& allocation,
    const workload::Query& query, workload::SystemConfig system) {
  if (allocation.total_disks() != system.total_disks()) {
    throw std::invalid_argument(
        "build_problem: allocation and system disagree on disk count");
  }
  RetrievalProblem problem;
  problem.system = std::move(system);
  problem.replicas = replica_lists(allocation, query);
  problem.validate();
  return problem;
}

std::int64_t basic_lower_bound_accesses(const RetrievalProblem& problem) {
  const std::int64_t n = problem.total_disks();
  return (problem.query_size() + n - 1) / n;
}

}  // namespace repflow::core
