// Algorithm 5 of the paper as a standalone solver: integrated push-relabel
// without binary capacity scaling.
//
// Capacities start at zero; each iteration admits the next-cheapest
// completion slot (IncrementMinCost) and resumes push-relabel from the
// conserved flows until the sink's excess reaches |Q|.
#pragma once

#include <optional>

#include "core/increment.h"
#include "core/network.h"
#include "core/solver.h"
#include "graph/push_relabel.h"

namespace repflow::core {

class PushRelabelIncrementalSolver {
 public:
  /// Reusable shell: construct once, serve many problems via solve_into().
  PushRelabelIncrementalSolver() = default;

  /// Rebuild internal state in place and solve `problem`; steady-state
  /// calls on same-footprint problems perform zero heap allocations.
  void solve_into(const RetrievalProblem& problem, SolveResult& result);

  const RetrievalNetwork& network() const { return network_; }

  /// Retained working-memory footprint (network + engine buffers).
  std::size_t retained_bytes() const;

 private:
  RetrievalNetwork network_;
  CapacityIncrementer incrementer_;
  std::optional<graph::PushRelabel> engine_;
};

}  // namespace repflow::core
