// Exact push-relabel heights (the global relabeling of Cherkassky and
// Goldberg [19]), shared by the sequential engine (graph::PushRelabel) and
// the Hong & He engine (parallel::ParallelPushRelabel).  The two differ only
// in how they read an arc's residual capacity: plain loads, or relaxed
// std::atomic_ref loads of the flow array.
//
// A backward BFS from the sink labels every vertex that can still reach it
// with its residual distance.  A second backward BFS from the source, at
// base n, labels the vertices cut off from the sink with n plus their
// distance to the source, so their excess climbs back toward it.  Vertices
// that reach neither are parked at 2n, and the source ends at n.  When the
// sink-side pass labels every vertex but the source, the source-side pass
// could label nothing, so it is skipped.
//
// The BFS inner loop has no data-dependent branch.  Whether a neighbor is
// still unlabeled and whether its arc is residual both depend on the flow
// state, so a branchy scan mispredicts on a large share of arcs.  Instead
// the loop writes every head at the queue tail, advances the tail by the
// predicate, and merges the new height into the old one by mask (GCC turns
// a `take ? next : old` select back into a branch).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/flow_network.h"

namespace repflow::graph {

namespace detail {

constexpr std::int32_t kUnlabeled = -1;

/// Backward BFS over residual arcs from `root` at height `base`: labels
/// every vertex still at kUnlabeled that reaches `root`, and returns how
/// many vertices it labeled (root included).  `queue` needs one slot more
/// than the number of vertices, since each head is written at the tail
/// before the predicate decides whether it stays.
template <class Residual>
std::size_t backward_bfs(const FlowNetwork& net, const Residual& residual,
                         const Vertex root, const std::int32_t base,
                         std::int32_t* height, Vertex* queue) {
  height[root] = base;
  queue[0] = root;
  std::size_t head = 0;
  std::size_t tail = 1;
  while (head < tail) {
    const Vertex v = queue[head++];
    const std::int32_t next = height[v] + 1;
    for (const ArcId a : net.out_arcs(v)) {
      const Vertex w = net.head(a);
      const std::int32_t old = height[w];
      // w reaches v along (w -> v), the reverse slot of a.
      const std::int32_t take =
          static_cast<std::int32_t>(old == kUnlabeled) &
          static_cast<std::int32_t>(residual(a ^ 1) > 0);
      queue[tail] = w;
      tail += static_cast<std::size_t>(take);
      height[w] = old ^ ((old ^ next) & -take);
    }
  }
  return tail;
}

}  // namespace detail

/// Write exact heights for every vertex of `net` into height[0, n).
/// `residual(a)` returns arc a's residual capacity; `queue` is scratch with
/// at least n + 1 slots.  Must not run concurrently with pushes.
template <class Residual>
void compute_exact_heights(const FlowNetwork& net, const Vertex source,
                           const Vertex sink, const Residual& residual,
                           const std::span<std::int32_t> height,
                           const std::span<Vertex> queue) {
  const auto n = static_cast<std::size_t>(net.num_vertices());
  std::int32_t* h = height.data();
  std::fill_n(h, n, detail::kUnlabeled);
  const std::size_t reached =
      detail::backward_bfs(net, residual, sink, 0, h, queue.data());
  const auto source_height = static_cast<std::int32_t>(n);
  const std::size_t source_unlabeled =
      h[source] == detail::kUnlabeled ? 1 : 0;
  if (reached + source_unlabeled < n) {
    detail::backward_bfs(net, residual, source, source_height, h,
                         queue.data());
    const auto ceiling = static_cast<std::int32_t>(2 * n);
    for (std::size_t v = 0; v < n; ++v) {
      h[v] = h[v] == detail::kUnlabeled ? ceiling : h[v];
    }
  }
  h[source] = source_height;
}

}  // namespace repflow::graph
