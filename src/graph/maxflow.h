// Common types shared by the max-flow engines.
#pragma once

#include <cstdint>
#include <string>

#include "graph/flow_network.h"

namespace repflow::graph {

/// Operation counters exposed by every engine; solvers fold them into
/// SolveResult::flow_stats, which the serving benchmark reports per query.
struct FlowStats {
  std::uint64_t augmentations = 0;   // Ford-Fulkerson paths
  std::uint64_t pushes = 0;          // push-relabel pushes
  std::uint64_t relabels = 0;        // push-relabel relabels
  std::uint64_t global_relabels = 0; // exact-height recomputations
  std::uint64_t gap_jumps = 0;       // vertices lifted by the gap heuristic
  std::uint64_t dfs_visits = 0;      // vertices touched by augmenting search

  void reset() { *this = FlowStats{}; }
  FlowStats& operator+=(const FlowStats& o) {
    augmentations += o.augmentations;
    pushes += o.pushes;
    relabels += o.relabels;
    global_relabels += o.global_relabels;
    gap_jumps += o.gap_jumps;
    dfs_visits += o.dfs_visits;
    return *this;
  }
  FlowStats& operator-=(const FlowStats& o) {
    augmentations -= o.augmentations;
    pushes -= o.pushes;
    relabels -= o.relabels;
    global_relabels -= o.global_relabels;
    gap_jumps -= o.gap_jumps;
    dfs_visits -= o.dfs_visits;
    return *this;
  }
  std::string to_string() const;
};

/// Delta between two cumulative snapshots of the same engine (b taken
/// earlier than a): the operation counts of the runs in between.
inline FlowStats operator-(FlowStats a, const FlowStats& b) {
  a -= b;
  return a;
}

/// Result of a full max-flow computation.
struct MaxflowResult {
  Cap value = 0;
  FlowStats stats;
};

/// Fold a FlowStats total into the process-global obs registry (counters
/// `graph.augmentations`, `graph.pushes`, ...).  Engines call this once per
/// lifetime from their destructor so the hot paths stay atomic-free; the
/// per-run FlowStats remains the caller-facing view of the same events.
void publish_flow_stats(const FlowStats& stats);

}  // namespace repflow::graph
