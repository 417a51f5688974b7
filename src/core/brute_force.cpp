#include "core/brute_force.h"

#include <limits>
#include <stdexcept>
#include <vector>

namespace repflow::core {

BruteForceSolver::BruteForceSolver(const RetrievalProblem& problem,
                                   std::uint64_t max_assignments)
    : problem_(problem), max_assignments_(max_assignments) {}

SolveResult BruteForceSolver::solve() {
  const auto q = static_cast<std::size_t>(problem_.query_size());
  std::uint64_t space = 1;
  for (const auto& replicas : problem_.replicas) {
    if (space > max_assignments_ / replicas.size()) {
      throw std::invalid_argument(
          "BruteForceSolver: search space exceeds max_assignments");
    }
    space *= replicas.size();
  }

  std::vector<std::size_t> choice(q, 0);
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(problem_.total_disks()), 0);
  Schedule best;
  double best_time = std::numeric_limits<double>::infinity();
  bool have_best = false;  // an overflowing optimum is inf, not "none"

  // Odometer enumeration of all assignments.
  for (;;) {
    // Evaluate the current assignment.
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t b = 0; b < q; ++b) {
      ++counts[static_cast<std::size_t>(problem_.replicas[b][choice[b]])];
    }
    double response = 0.0;
    for (std::size_t d = 0; d < counts.size(); ++d) {
      if (counts[d] > 0) {
        response =
            std::max(response, problem_.completion_time(
                                   static_cast<DiskId>(d), counts[d]));
      }
    }
    if (!have_best || response < best_time) {
      have_best = true;
      best_time = response;
      best.assigned_disk.resize(q);
      for (std::size_t b = 0; b < q; ++b) {
        best.assigned_disk[b] = problem_.replicas[b][choice[b]];
      }
      best.per_disk_count = counts;
    }
    // Advance the odometer.
    std::size_t pos = 0;
    while (pos < q) {
      if (++choice[pos] < problem_.replicas[pos].size()) break;
      choice[pos] = 0;
      ++pos;
    }
    if (pos == q) break;
  }

  SolveResult result;
  result.response_time_ms = best_time;
  result.schedule = std::move(best);
  return result;
}

}  // namespace repflow::core
