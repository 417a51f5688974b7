// Integrated Ford-Fulkerson with binary capacity scaling.
//
// Not evaluated in the paper, but the natural fourth cell of the algorithm
// matrix {Ford-Fulkerson, push-relabel} x {incremental only, binary
// scaling}: Algorithm 6's search (BinaryScalingDriver) with augmenting-path
// max-flow instead of push-relabel.  Because Ford-Fulkerson works with
// flows (never preflows), conservation is even simpler: a flow valid under
// caps(t) is valid under caps(t') for every t' >= t, so only the
// infeasible-probe snapshots are needed, exactly as in Algorithm 6.
//
// The ablation bench uses it to separate "binary scaling helps" from
// "push-relabel helps" in the paper's Figure 5/6 gap.
#pragma once

#include <optional>
#include <vector>

#include "core/binary_scaling.h"
#include "core/network.h"
#include "core/solver.h"
#include "graph/ford_fulkerson.h"

namespace repflow::core {

class FordFulkersonBinarySolver : private ScalingKernel {
 public:
  /// Reusable shell: construct once, serve many problems via solve_into().
  FordFulkersonBinarySolver() = default;

  /// One-problem convenience binding (the original API).
  explicit FordFulkersonBinarySolver(const RetrievalProblem& problem);

  /// Solve the constructor-bound problem.
  SolveResult solve();

  /// Rebuild internal state in place and solve `problem`; steady-state
  /// calls on same-footprint problems perform zero heap allocations.
  void solve_into(const RetrievalProblem& problem, SolveResult& result);

  const RetrievalNetwork& network() const { return network_; }

  /// Retained working-memory footprint (network + engine + snapshots).
  std::size_t retained_bytes() const;

 private:
  void set_capacities_for_time(double t) override;
  std::int64_t resume() override;
  void save() override;
  void restore() override;

  const RetrievalProblem* bound_problem_ = nullptr;
  RetrievalNetwork network_;
  BinaryScalingDriver driver_;
  graph::MaxflowWorkspace workspace_;
  std::optional<graph::FordFulkerson> engine_;
  std::vector<graph::Cap> saved_flows_;
};

}  // namespace repflow::core
