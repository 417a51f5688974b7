// Min-cut extraction and flow decomposition.
//
// These back the property tests: the max-flow value must equal the min-cut
// capacity, and a flow must decompose into source-sink paths.  Flow
// validity (Equation 1 of the paper) is checked by analysis/flow_invariants.h.
#pragma once

#include <vector>

#include "graph/flow_network.h"

namespace repflow::graph {

/// An s-t cut as the source-side vertex set plus its capacity.
struct Cut {
  std::vector<bool> source_side;
  Cap capacity = 0;
  std::vector<ArcId> crossing_arcs;  // forward arcs from S to V\S
};

/// Extract the canonical min cut of the *current* flow: S = vertices
/// reachable from `source` in the residual graph.  Only meaningful when the
/// flow is maximum; validate with max-flow value == cut.capacity.
Cut residual_min_cut(const FlowNetwork& net, Vertex source);

/// One unit-path of a flow decomposition.
struct FlowPath {
  std::vector<ArcId> arcs;  // forward arcs from source to sink
  Cap amount = 0;
};

/// Decompose the current (acyclic-usage) flow into s-t paths.  Cycles are
/// canceled silently; the sum of path amounts equals the flow value.
std::vector<FlowPath> decompose_paths(FlowNetwork& net, Vertex source,
                                      Vertex sink);

}  // namespace repflow::graph
