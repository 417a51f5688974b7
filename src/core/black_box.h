// The black-box baseline of [12] (Altiparmak & Tosun, generalized optimal
// response time retrieval): the same search as Algorithm 6
// (BinaryScalingDriver), but every feasibility probe runs a fresh max-flow
// from zero flow — no flow conservation, so its save and restore do
// nothing.  This is the algorithm the paper's "bb/int" ratio figures
// (7, 8, 9) compare against.
#pragma once

#include <optional>

#include "core/binary_scaling.h"
#include "core/network.h"
#include "core/solver.h"
#include "graph/push_relabel.h"

namespace repflow::core {

/// Every probe runs FIFO push-relabel, as [12] runs LEDA's.
class BlackBoxBinarySolver : private ScalingKernel {
 public:
  /// Reusable shell: construct once, serve many problems via solve_into().
  BlackBoxBinarySolver() = default;

  /// One-problem convenience binding (the original API).
  explicit BlackBoxBinarySolver(const RetrievalProblem& problem)
      : bound_problem_(&problem) {}

  /// Solve the constructor-bound problem.
  SolveResult solve();

  /// Rebuild internal state in place and solve `problem`; steady-state
  /// calls on same-footprint problems perform zero heap allocations.
  void solve_into(const RetrievalProblem& problem, SolveResult& result);

  const RetrievalNetwork& network() const { return network_; }

  /// Retained working-memory footprint (network + engine workspace +
  /// candidate buffer).
  std::size_t retained_bytes() const;

 private:
  void set_capacities_for_time(double t) override;
  /// One from-zero max-flow run under the current capacities.
  std::int64_t resume() override;
  void save() override {}
  void restore() override {}

  const RetrievalProblem* bound_problem_ = nullptr;
  SolveResult* result_ = nullptr;  // the solve in progress (run counters)
  RetrievalNetwork network_;
  BinaryScalingDriver driver_;
  graph::MaxflowWorkspace workspace_;
  // Engaged on the first solve; persists across solves (rebound in place)
  // so probes reuse its working buffers.
  std::optional<graph::PushRelabel> pr_;
};

}  // namespace repflow::core
