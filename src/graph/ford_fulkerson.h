// Ford-Fulkerson augmenting-path max-flow (DFS and BFS searches).
//
// Besides the classic "run to max flow" entry point, this engine exposes a
// single-augmentation primitive so the paper's integrated Algorithms 1 and 2
// can interleave capacity incrementation with per-bucket augmentations.
//
// Search scratch lives in a MaxflowWorkspace (graph/workspace.h); inject one
// to share buffers with sibling engines, or omit it for a private workspace.
#pragma once

#include <vector>

#include "graph/maxflow.h"
#include "graph/workspace.h"

namespace repflow::graph {

enum class SearchOrder {
  kDfs,  // depth-first (the paper's DFS(G, v, t, ...) routine)
  kBfs,  // breadth-first (Edmonds-Karp; shortest augmenting paths)
};

class FordFulkerson {
 public:
  explicit FordFulkerson(FlowNetwork& net, Vertex source, Vertex sink,
                         SearchOrder order = SearchOrder::kDfs,
                         MaxflowWorkspace* workspace = nullptr);
  /// Re-target the engine after the network was rebuilt in place.  Keeps
  /// buffer capacity and the cumulative stats() total.
  void rebind(Vertex source, Vertex sink);

  /// Search for one residual path from `from` to the sink and, if found,
  /// augment by the path bottleneck.  Returns the pushed amount (0 if no
  /// path).  `from` defaults to the source.
  Cap augment_once(Vertex from = kInvalidVertex);

  /// Augment until no residual s-t path remains; returns total pushed in
  /// this call (flow already on the network is untouched and conserved).
  Cap run();

  /// clear_flow() + run(): the classical black-box interface.  The result
  /// carries this run's operation counts; stats() keeps accumulating.
  MaxflowResult solve_from_zero();

  const FlowStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// The workspace in use (injected or owned) — for footprint reporting.
  const MaxflowWorkspace& workspace() const { return *ws_; }

 private:
  void validate_endpoints() const;
  void ensure_sizes();
  Cap dfs_augment(Vertex from);
  Cap bfs_augment(Vertex from);

  FlowNetwork& net_;
  Vertex source_;
  Vertex sink_;
  SearchOrder order_;
  FlowStats stats_;

  MaxflowWorkspace owned_workspace_;  // used when none is injected
  MaxflowWorkspace* ws_;
};

}  // namespace repflow::graph
