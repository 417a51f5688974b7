// Algorithm 1 of the paper (due to Chen & Rotem [18]): the integrated
// Ford-Fulkerson solver for the *basic* retrieval problem — homogeneous
// disks, no initial load, no network delay.
//
// Sink capacities start at ceil(|Q|/N); each query bucket is routed to the
// sink by one DFS augmentation, and whenever no augmenting path exists all
// sink capacities are incremented together.  Worst case O(c * |Q|^2).
#pragma once

#include "core/network.h"
#include "core/solver.h"
#include "graph/ford_fulkerson.h"

namespace repflow::core {

class FordFulkersonBasicSolver {
 public:
  /// Reusable shell: construct once, serve many problems via solve_into().
  FordFulkersonBasicSolver() = default;

  // The engine is bound to this shell's network: a copy or a move would
  // drive the original's.
  FordFulkersonBasicSolver(const FordFulkersonBasicSolver&) = delete;
  FordFulkersonBasicSolver& operator=(const FordFulkersonBasicSolver&) =
      delete;

  /// Rebuild internal state in place and solve `problem`, which must
  /// satisfy `problem.system.is_basic()` (throws std::invalid_argument
  /// otherwise).  Network, engine, and result buffers all retain capacity,
  /// so steady-state calls on same-footprint problems perform zero heap
  /// allocations.
  void solve_into(const RetrievalProblem& problem, SolveResult& result);

  /// The network after solve_into() (tests inspect flows directly).
  const RetrievalNetwork& network() const { return network_; }

  /// Retained working-memory footprint (network + engine buffers).
  std::size_t retained_bytes() const;

 private:
  RetrievalNetwork network_;
  graph::FordFulkerson engine_{network_.net(), graph::SearchOrder::kDfs};
};

}  // namespace repflow::core
