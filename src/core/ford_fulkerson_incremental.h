// Algorithm 2 of the paper: the integrated Ford-Fulkerson solver for the
// *generalized* retrieval problem.
//
// Differences from Algorithm 1: sink capacities start at 0 (no closed-form
// lower bound exists with heterogeneous disks), and failed augmentations
// trigger IncrementMinCost (Algorithm 3) instead of a uniform bump, so only
// the disk(s) whose next bucket completes earliest gain capacity.  Worst
// case O(c^2 * |Q|^2).
#pragma once

#include "core/increment.h"
#include "core/network.h"
#include "core/solver.h"
#include "graph/ford_fulkerson.h"

namespace repflow::core {

class FordFulkersonIncrementalSolver {
 public:
  /// Reusable shell: construct once, serve many problems via solve_into().
  FordFulkersonIncrementalSolver() = default;

  // The engine is bound to this shell's network: a copy or a move would
  // drive the original's.
  FordFulkersonIncrementalSolver(const FordFulkersonIncrementalSolver&) =
      delete;
  FordFulkersonIncrementalSolver& operator=(
      const FordFulkersonIncrementalSolver&) = delete;

  /// Rebuild internal state in place and solve `problem`; steady-state
  /// calls on same-footprint problems perform zero heap allocations.
  void solve_into(const RetrievalProblem& problem, SolveResult& result);

  const RetrievalNetwork& network() const { return network_; }

  /// Retained working-memory footprint (network + engine buffers).
  std::size_t retained_bytes() const;

 private:
  RetrievalNetwork network_;
  CapacityIncrementer incrementer_;
  graph::FordFulkerson engine_{network_.net(), graph::SearchOrder::kDfs};
};

}  // namespace repflow::core
