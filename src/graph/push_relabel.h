// FIFO push-relabel max-flow engine (Goldberg-Tarjan) with the
// Cherkassky-Goldberg exact-height (global relabeling) and gap heuristics.
//
// This class is designed for *integrated* use by the retrieval algorithms of
// the paper: its height/excess state is exposed so Algorithm 5/6 can conserve
// flows across capacity changes, re-saturate only source arcs with residual
// capacity, and re-run the push/relabel loop from the preserved preflow.
//
// The engine maintains the invariant that after run() returns, every vertex
// except source and sink has zero excess: excess that cannot reach the sink
// is returned to the source by relabeling past n (heights are bounded by
// 2n-1), exactly as required for the paper's flow-conservation scheme.
//
// Working memory lives in a MaxflowWorkspace (graph/workspace.h).  Pass one
// in to share buffers with other engines of the same solver; omit it and the
// engine owns a private workspace.  Either way the buffers are retained
// across runs and across rebind(), so steady-state reruns allocate nothing.
#pragma once

#include <vector>

#include "graph/maxflow.h"
#include "graph/workspace.h"

namespace repflow::graph {

/// How heights are initialized at the start of a (re)run.
enum class HeightInit {
  kZero,           ///< all zero except height[s] = n (paper's Algorithm 4/5)
  kGlobalRelabel,  ///< exact distances to the sink (Cherkassky-Goldberg [19])
};

struct PushRelabelOptions {
  HeightInit height_init = HeightInit::kGlobalRelabel;
  /// Re-run global relabeling after this many relabel operations
  /// (0 disables periodic global relabeling).
  std::uint64_t global_relabel_interval_factor = 1;  // x num_vertices
  bool use_gap_heuristic = true;
};

class PushRelabel {
 public:
  PushRelabel(FlowNetwork& net, Vertex source, Vertex sink,
              PushRelabelOptions options = {},
              MaxflowWorkspace* workspace = nullptr);
  /// Re-target the engine after the network was rebuilt in place (same
  /// FlowNetwork object, possibly different topology).  Clears all engine
  /// state as if freshly constructed, but keeps buffer capacity and the
  /// cumulative stats() total.
  void rebind(Vertex source, Vertex sink);

  // ---- Black-box interface (the [12] baseline uses exactly this) ----

  /// clear_flow() + full preflow init + run().  Returns max-flow value with
  /// this run's operation counts (stats() keeps accumulating across runs).
  MaxflowResult solve_from_zero();

  // ---- Integrated interface (Algorithms 5 and 6) ----

  /// Lines 4-10 of Algorithm 5: for every source out-arc with residual
  /// capacity, saturate it, credit the head's excess, and activate the head.
  /// Existing flows are conserved.  Also re-activates any vertex that still
  /// carries excess from an earlier run (none after a completed run).
  void saturate_source_arcs();

  /// Lines 11-14 of Algorithm 5: reset heights (per `options.height_init`)
  /// and zero the source's excess bookkeeping.
  void reinitialize_heights();

  /// Drain the FIFO queue with push/relabel operations; returns excess[t],
  /// i.e. the value of the current flow.
  Cap run();

  /// Convenience: saturate + reinit heights + run.
  Cap resume();

  // ---- State inspection / manipulation for Algorithm 6 ----

  Cap excess(Vertex v) const { return ws_->excess[v]; }
  std::int32_t height(Vertex v) const { return ws_->height[v]; }

  /// After restoring a flow snapshot into the network, realign the engine's
  /// excess bookkeeping: all conserved vertices zero, sink = `sink_excess`.
  void reset_excess_after_restore(Cap sink_excess);

  const FlowStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// The workspace in use (injected or owned) — for footprint reporting.
  const MaxflowWorkspace& workspace() const { return *ws_; }

 private:
  void validate_endpoints() const;
  void ensure_sizes();
  void enqueue_if_active(Vertex v);
  void discharge(Vertex v);
  void relabel(Vertex v);
  void apply_gap(std::int32_t emptied_height);
  void global_relabel();

  FlowNetwork& net_;
  Vertex source_;
  Vertex sink_;
  PushRelabelOptions options_;
  FlowStats stats_;

  MaxflowWorkspace owned_workspace_;  // used when none is injected
  MaxflowWorkspace* ws_;
  std::uint64_t relabels_since_global_ = 0;
};

}  // namespace repflow::graph
