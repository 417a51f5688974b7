// Algorithm 5 of the paper as a standalone solver: integrated push-relabel
// without binary capacity scaling.
//
// Capacities start at zero; each iteration admits the next-cheapest
// completion slot (IncrementMinCost) and resumes push-relabel from the
// conserved flows until the sink's excess reaches |Q|.
#pragma once

#include "core/increment.h"
#include "core/network.h"
#include "core/solver.h"
#include "graph/push_relabel.h"

namespace repflow::core {

class PushRelabelIncrementalSolver {
 public:
  /// Reusable shell: construct once, serve many problems via solve_into().
  PushRelabelIncrementalSolver() = default;

  // The engine is bound to this shell's network: a copy or a move would
  // drive the original's.
  PushRelabelIncrementalSolver(const PushRelabelIncrementalSolver&) = delete;
  PushRelabelIncrementalSolver& operator=(
      const PushRelabelIncrementalSolver&) = delete;

  /// Rebuild internal state in place and solve `problem`; steady-state
  /// calls on same-footprint problems perform zero heap allocations.
  void solve_into(const RetrievalProblem& problem, SolveResult& result);

  const RetrievalNetwork& network() const { return network_; }

  /// Retained working-memory footprint (network + engine buffers).
  std::size_t retained_bytes() const;

 private:
  RetrievalNetwork network_;
  CapacityIncrementer incrementer_;
  graph::PushRelabel engine_{network_.net()};
};

}  // namespace repflow::core
