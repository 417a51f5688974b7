// The integrated max-flow engine interface consumed by the binary-scaling
// driver (Algorithm 6).  The sequential implementation wraps the FIFO
// push-relabel of src/graph; the parallel implementation (src/parallel)
// substitutes the Hong & He multithreaded engine of Section V.
#pragma once

#include <cstddef>

#include "graph/maxflow.h"
#include "graph/push_relabel.h"

namespace repflow::core {

class IntegratedEngine {
 public:
  virtual ~IntegratedEngine() = default;

  /// Saturate residual source arcs, reinitialize heights, and run
  /// push/relabel to completion from the network's current flows.
  /// Returns the flow value (excess of the sink).
  virtual graph::Cap resume() = 0;

  /// Realign excess bookkeeping after the driver restored a flow snapshot.
  virtual void reset_excess_after_restore(graph::Cap sink_excess) = 0;

  /// Re-target the engine after its network was rebuilt in place (the
  /// FlowNetwork object is the same; topology and endpoints may differ).
  /// Clears per-run state while retaining working-buffer capacity, so a
  /// persistent engine serves successive problems without reallocating.
  virtual void rebind(graph::Vertex source, graph::Vertex sink) = 0;

  virtual const graph::FlowStats& stats() const = 0;

  /// Capacity-based estimate of the engine's retained working memory.
  virtual std::size_t retained_bytes() const = 0;
};

/// Sequential engine: the paper's Algorithm 4/5 machinery.
class SequentialPushRelabelEngine final : public IntegratedEngine {
 public:
  SequentialPushRelabelEngine(
      graph::FlowNetwork& net, graph::Vertex source, graph::Vertex sink,
      graph::HeightInit init = graph::HeightInit::kGlobalRelabel)
      : solver_(net, source, sink, init) {}

  graph::Cap resume() override { return solver_.resume(); }
  void reset_excess_after_restore(graph::Cap sink_excess) override {
    solver_.reset_excess_after_restore(sink_excess);
  }
  void rebind(graph::Vertex source, graph::Vertex sink) override {
    solver_.rebind(source, sink);
  }
  const graph::FlowStats& stats() const override { return solver_.stats(); }
  std::size_t retained_bytes() const override {
    return solver_.retained_bytes();
  }

 private:
  graph::PushRelabel solver_;
};

}  // namespace repflow::core
