// Ford-Fulkerson augmenting-path max-flow (DFS and BFS searches).
//
// Besides the classic "run to max flow" entry point, this engine exposes a
// single-augmentation primitive so the paper's integrated Algorithms 1 and 2
// can interleave capacity incrementation with per-bucket augmentations.
//
// The engine owns its search scratch (visited marks, cursors, parent arcs,
// the path and the stack); the buffers are retained across runs and
// rebind(), so a persistent engine reruns without allocating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/maxflow.h"

namespace repflow::graph {

enum class SearchOrder {
  kDfs,  // depth-first (the paper's DFS(G, v, t, ...) routine)
  kBfs,  // breadth-first (Edmonds-Karp; shortest augmenting paths)
};

class FordFulkerson {
 public:
  /// An engine over `net` with no endpoints yet: rebind() before the first
  /// search.  A solver shell constructs it next to its own network and
  /// rebinds at the start of every solve.
  explicit FordFulkerson(FlowNetwork& net,
                         SearchOrder order = SearchOrder::kDfs);
  FordFulkerson(FlowNetwork& net, Vertex source, Vertex sink,
                SearchOrder order = SearchOrder::kDfs);
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

  /// Capacity-based footprint of the retained search buffers.
  std::size_t retained_bytes() const;

 private:
  void validate_endpoints() const;
  void ensure_sizes();
  Cap dfs_augment(Vertex from);
  Cap bfs_augment(Vertex from);

  FlowNetwork& net_;
  Vertex source_ = kInvalidVertex;
  Vertex sink_ = kInvalidVertex;
  SearchOrder order_;
  FlowStats stats_;

  std::vector<std::uint32_t> visited_mark_;  // epoch-stamped visited flags
  std::uint32_t mark_epoch_ = 0;
  std::vector<std::uint32_t> arc_cursor_;    // DFS scan position per vertex
  std::vector<ArcId> parent_arc_;            // BFS predecessor arcs
  std::vector<ArcId> path_;                  // DFS augmenting path
  std::vector<Vertex> stack_;                // DFS stack / BFS queue
};

}  // namespace repflow::graph
