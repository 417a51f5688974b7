// Algorithm 6 of the paper: the integrated push-relabel solver with binary
// capacity scaling — the headline contribution.
//
// The search over candidate response times lives in BinaryScalingDriver
// (core/binary_scaling.h).  This shell is its push-relabel kernel: each
// probe retunes the sink capacities and *resumes* push-relabel from the
// conserved flows; the driver snapshots the flow of every infeasible probe
// and restores it after a feasible one, since that flow may overshoot the
// smaller capacities probed next.  Flow monotonicity makes every conserved
// state valid for every later probe.
//
// The engine is the shell's one parameter: Section V replaces only the
// push/relabel loop of line 29, so the sequential FIFO engine and the
// Hong & He engine run under the same shell.
//
// Worst case O(log|Q| * |Q|^3); much faster in practice thanks to flow
// conservation (the property the paper's Figures 7-9 quantify).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/binary_scaling.h"
#include "core/network.h"
#include "core/solver.h"
#include "graph/push_relabel.h"
#include "parallel/parallel_push_relabel.h"

namespace repflow::core {

/// Algorithm 6 over `Engine`, which is constructed against the shell's own
/// network and rebound at the start of every solve.  The shell calls
/// rebind(source, sink), resume(), reset_excess_after_restore(sink_excess),
/// stats() and retained_bytes() on it.  Instantiated for graph::PushRelabel
/// and parallel::ParallelPushRelabel (the aliases below).
template <typename Engine>
class IntegratedPushRelabelSolver : private ScalingKernel {
 public:
  /// Reusable shell: construct once, serve many problems via solve_into().
  /// `setting` is the engine's own: an optional graph::HeightInit for
  /// PushRelabel, the worker count for ParallelPushRelabel.
  template <typename... Setting>
    requires std::constructible_from<Engine, graph::FlowNetwork&, Setting...>
  explicit IntegratedPushRelabelSolver(Setting... setting)
      : engine_(network_.net(), setting...) {}

  // The engine is bound to this shell's network: a copy or a move would
  // drive the original's.
  IntegratedPushRelabelSolver(const IntegratedPushRelabelSolver&) = delete;
  IntegratedPushRelabelSolver& operator=(const IntegratedPushRelabelSolver&) =
      delete;

  /// Rebuild internal state in place and solve `problem`; steady-state
  /// calls on same-footprint problems perform zero heap allocations.
  void solve_into(const RetrievalProblem& problem, SolveResult& result);

  const RetrievalNetwork& network() const { return network_; }

  /// Retained working-memory footprint (network + engine + snapshot +
  /// candidate buffer).
  std::size_t retained_bytes() const;

 private:
  void set_capacities_for_time(double t) override;
  std::int64_t resume() override;
  void save() override;
  void restore() override;
  void seed(const std::vector<std::int32_t>& disk_of_bucket) override;

  RetrievalNetwork network_;
  Engine engine_;  // bound to network_, so declared after it
  BinaryScalingDriver driver_;
  std::vector<graph::Cap> saved_flows_;
};

/// SolverKind::kPushRelabelBinary; HeightInit::kZero runs the paper's plain
/// Algorithm 4/5 engine (the ablation's zero-height column).
using PushRelabelBinarySolver = IntegratedPushRelabelSolver<graph::PushRelabel>;

/// SolverKind::kParallelPushRelabelBinary: Section V's Hong & He engine,
/// constructed with its worker count (throws on threads < 1).
using ParallelPushRelabelBinarySolver =
    IntegratedPushRelabelSolver<parallel::ParallelPushRelabel>;

extern template class IntegratedPushRelabelSolver<graph::PushRelabel>;
extern template class IntegratedPushRelabelSolver<
    parallel::ParallelPushRelabel>;

}  // namespace repflow::core
