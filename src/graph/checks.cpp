#include "graph/checks.h"

#include <algorithm>
#include <limits>

namespace repflow::graph {

Cut residual_min_cut(const FlowNetwork& net, Vertex source) {
  Cut cut;
  cut.source_side.assign(static_cast<std::size_t>(net.num_vertices()), false);
  std::vector<Vertex> stack{source};
  cut.source_side[source] = true;
  while (!stack.empty()) {
    const Vertex v = stack.back();
    stack.pop_back();
    for (ArcId a : net.out_arcs(v)) {
      const Vertex w = net.head(a);
      if (net.residual(a) > 0 && !cut.source_side[w]) {
        cut.source_side[w] = true;
        stack.push_back(w);
      }
    }
  }
  for (ArcId a = 0; a < net.num_arcs(); a += 2) {
    if (cut.source_side[net.tail(a)] && !cut.source_side[net.head(a)]) {
      cut.capacity += net.capacity(a);
      cut.crossing_arcs.push_back(a);
    }
  }
  return cut;
}

std::vector<FlowPath> decompose_paths(FlowNetwork& net, Vertex source,
                                      Vertex sink) {
  // Work on a copy of the forward flows so the network is not mutated.
  std::vector<Cap> remaining(static_cast<std::size_t>(net.num_arcs()), 0);
  for (ArcId a = 0; a < net.num_arcs(); a += 2) remaining[a] = net.flow(a);

  std::vector<FlowPath> paths;
  const auto n = static_cast<std::size_t>(net.num_vertices());
  // Because the remaining flow always satisfies conservation, a greedy walk
  // from the source along positive-remaining arcs can only end at the sink
  // or revisit a vertex (a flow cycle).  Cycles are canceled and the walk is
  // restarted; each restart strictly decreases total remaining flow, so the
  // loop terminates.
  while (true) {
    std::vector<ArcId> walk;
    std::vector<std::int32_t> visit_pos(n, -1);
    Vertex v = source;
    visit_pos[v] = 0;
    bool reached_sink = false;
    bool canceled_cycle = false;
    while (!reached_sink && !canceled_cycle) {
      if (v == sink) {
        reached_sink = true;
        break;
      }
      ArcId next = kInvalidArc;
      for (ArcId a : net.out_arcs(v)) {
        if ((a & 1) == 0 && remaining[a] > 0) {
          next = a;
          break;
        }
      }
      if (next == kInvalidArc) break;  // only possible when v == source
      const Vertex w = net.head(next);
      if (visit_pos[w] >= 0) {
        // Cancel the cycle w -> ... -> v -> w.
        Cap cycle_min = remaining[next];
        for (std::size_t k = static_cast<std::size_t>(visit_pos[w]);
             k < walk.size(); ++k) {
          cycle_min = std::min(cycle_min, remaining[walk[k]]);
        }
        remaining[next] -= cycle_min;
        for (std::size_t k = static_cast<std::size_t>(visit_pos[w]);
             k < walk.size(); ++k) {
          remaining[walk[k]] -= cycle_min;
        }
        canceled_cycle = true;
        break;
      }
      walk.push_back(next);
      visit_pos[w] = static_cast<std::int32_t>(walk.size());
      v = w;
    }
    if (canceled_cycle) continue;  // restart the walk
    if (!reached_sink || walk.empty()) break;
    Cap bottleneck = std::numeric_limits<Cap>::max();
    for (ArcId a : walk) bottleneck = std::min(bottleneck, remaining[a]);
    for (ArcId a : walk) remaining[a] -= bottleneck;
    paths.push_back(FlowPath{walk, bottleneck});
  }
  return paths;
}

}  // namespace repflow::graph
