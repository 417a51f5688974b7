// Adapters exposing the multithreaded engines through the IntegratedEngine
// interface, so Algorithm 6's driver runs unchanged with either parallel
// engine (the paper's Section V modifies only line 29).
//
// Two engines sit behind the same seam (core::EngineKind):
//   * kHongHe — asynchronous lock-free push-relabel (ParallelPushRelabel)
//   * kRound  — bulk-synchronous round-based push-relabel (RoundPushRelabel)
#pragma once

#include <memory>

#include "core/engine.h"
#include "core/push_relabel_binary.h"
#include "parallel/parallel_push_relabel.h"
#include "parallel/round_push_relabel.h"

namespace repflow::parallel {

/// Wraps a concrete parallel solver (ParallelPushRelabel or
/// RoundPushRelabel) as an IntegratedEngine.  The solver must expose
/// resume / reset_excess_after_restore / rebind / stats / retained_bytes.
template <typename Solver>
class ParallelEngineAdapter final : public core::IntegratedEngine {
 public:
  ParallelEngineAdapter(graph::FlowNetwork& net, graph::Vertex source,
                        graph::Vertex sink, int threads)
      : solver_(net, source, sink, threads) {}

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

  Solver& solver() { return solver_; }

 private:
  Solver solver_;
};

using ParallelEngine = ParallelEngineAdapter<ParallelPushRelabel>;
using RoundEngine = ParallelEngineAdapter<RoundPushRelabel>;

/// Engine factory for PushRelabelBinarySolver running `threads` workers of
/// the Hong & He asynchronous engine (historic default).
core::EngineFactory parallel_engine_factory(int threads);

/// Engine factory for a specific engine kind.
core::EngineFactory parallel_engine_factory(int threads,
                                            core::EngineKind kind);

}  // namespace repflow::parallel
