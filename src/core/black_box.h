// The black-box baseline of [12] (Altiparmak & Tosun, generalized optimal
// response time retrieval): the same search as Algorithm 6
// (BinaryScalingDriver), but every feasibility probe runs a fresh max-flow
// from zero flow — no flow conservation, so its seed, save and restore do
// nothing.  This is the algorithm the paper's "bb/int" ratio figures
// (7, 8, 9) compare against.
#pragma once

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

  // The engine is bound to this shell's network: a copy or a move would
  // drive the original's.
  BlackBoxBinarySolver(const BlackBoxBinarySolver&) = delete;
  BlackBoxBinarySolver& operator=(const BlackBoxBinarySolver&) = delete;

  /// Rebuild internal state in place and solve `problem`; steady-state
  /// calls on same-footprint problems perform zero heap allocations.
  void solve_into(const RetrievalProblem& problem, SolveResult& result);

  const RetrievalNetwork& network() const { return network_; }

  /// Retained working-memory footprint (network + engine buffers +
  /// candidate buffer).
  std::size_t retained_bytes() const;

 private:
  void set_capacities_for_time(double t) override;
  /// One from-zero max-flow run under the current capacities.
  std::int64_t resume() override;
  void save() override {}
  void restore() override {}
  void seed(const std::vector<std::int32_t>&) override {}

  RetrievalNetwork network_;
  graph::PushRelabel engine_{network_.net()};  // bound to network_
  BinaryScalingDriver driver_;
};

}  // namespace repflow::core
