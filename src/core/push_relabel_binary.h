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
// Worst case O(log|Q| * |Q|^3); much faster in practice thanks to flow
// conservation (the property the paper's Figures 7-9 quantify).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/binary_scaling.h"
#include "core/engine.h"
#include "core/network.h"
#include "core/solver.h"

namespace repflow::core {

/// Factory so the same driver runs with the sequential or the parallel
/// engine (Section V replaces only the push/relabel loop of line 29).
using EngineFactory = std::function<std::unique_ptr<IntegratedEngine>(
    graph::FlowNetwork&, graph::Vertex source, graph::Vertex sink)>;

/// Default factory: the sequential FIFO push-relabel engine.
EngineFactory sequential_engine_factory(
    graph::HeightInit init = graph::HeightInit::kGlobalRelabel);

class PushRelabelBinarySolver : private ScalingKernel {
 public:
  /// Reusable shell: construct once, serve many problems via solve_into().
  /// The engine is created lazily on the first solve and rebound (state
  /// cleared, buffers kept) on every subsequent one.
  explicit PushRelabelBinarySolver(EngineFactory factory =
                                       sequential_engine_factory());

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
  EngineFactory factory_;
  std::unique_ptr<IntegratedEngine> engine_;
  BinaryScalingDriver driver_;
  std::vector<graph::Cap> saved_flows_;
};

}  // namespace repflow::core
