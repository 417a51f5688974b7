#include "graph/push_relabel.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "analysis/check.h"

namespace repflow::graph {

PushRelabel::PushRelabel(FlowNetwork& net, Vertex source, Vertex sink,
                         PushRelabelOptions options,
                         MaxflowWorkspace* workspace)
    : net_(net),
      source_(source),
      sink_(sink),
      options_(options),
      ws_(workspace != nullptr ? workspace : &owned_workspace_) {
  // Full rebind clear: an injected workspace may hold state from a previous
  // engine, and resume() (unlike solve_from_zero) relies on a clean start.
  rebind(source, sink);
}

void PushRelabel::validate_endpoints() const {
  if (source_ < 0 || source_ >= net_.num_vertices() || sink_ < 0 ||
      sink_ >= net_.num_vertices() || source_ == sink_) {
    throw std::invalid_argument("PushRelabel: bad source/sink");
  }
}

void PushRelabel::ensure_sizes() {
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  if (ws_->excess.size() < n) {
    ws_->excess.resize(n, 0);
    ws_->height.resize(n, 0);
    ws_->in_queue.resize(n, 0);
    ws_->height_count.assign(2 * n + 2, 0);
  }
  if (ws_->arc_cursor.size() < n) ws_->arc_cursor.resize(n, 0);
  ws_->fifo.ensure_capacity(n);
}

void PushRelabel::rebind(Vertex source, Vertex sink) {
  source_ = source;
  sink_ = sink;
  validate_endpoints();
  ensure_sizes();
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  std::fill_n(ws_->excess.begin(), n, Cap{0});
  std::fill_n(ws_->in_queue.begin(), n, std::uint8_t{0});
  ws_->fifo.clear();
  relabels_since_global_ = 0;
}

void PushRelabel::enqueue_if_active(Vertex v) {
  if (v == source_ || v == sink_) return;
  if (ws_->excess[v] > 0 && !ws_->in_queue[v]) {
    ws_->in_queue[v] = 1;
    ws_->fifo.push(v);
  }
}

void PushRelabel::saturate_source_arcs() {
  ensure_sizes();
  for (ArcId a : net_.out_arcs(source_)) {
    const Cap delta = net_.residual(a);
    if (delta <= 0) continue;
    net_.push_on(a, delta);
    const Vertex v = net_.head(a);
    ws_->excess[v] += delta;
    enqueue_if_active(v);
  }
}

void PushRelabel::reinitialize_heights() {
  ensure_sizes();
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  ws_->excess[source_] = 0;
  std::fill(ws_->arc_cursor.begin(), ws_->arc_cursor.end(), 0u);
  if (options_.height_init == HeightInit::kZero) {
    std::fill(ws_->height.begin(), ws_->height.end(), 0);
    ws_->height[source_] = static_cast<std::int32_t>(n);
    std::fill(ws_->height_count.begin(), ws_->height_count.end(), 0);
    ws_->height_count[0] = static_cast<std::int32_t>(n - 1);
    ws_->height_count[n] = 1;
  } else {
    global_relabel();
  }
  relabels_since_global_ = 0;
}

void PushRelabel::global_relabel() {
  ++stats_.global_relabels;
  auto& height = ws_->height;
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  constexpr std::int32_t kUnset = -1;
  std::fill(height.begin(), height.end(), kUnset);
  // Backward BFS from the sink over residual arcs: w can reach v along
  // (w -> v) iff residual(reverse(out-arc of v pointing at w)) > 0.
  auto backward_bfs = [&](Vertex root, std::int32_t base) {
    height[root] = base;
    auto& queue = ws_->vertex_scratch;
    queue.clear();
    queue.push_back(root);
    std::size_t qi = 0;
    while (qi < queue.size()) {
      const Vertex v = queue[qi++];
      for (ArcId a : net_.out_arcs(v)) {
        const Vertex w = net_.head(a);
        if (height[w] != kUnset) continue;
        if (net_.residual(net_.reverse(a)) <= 0) continue;
        height[w] = height[v] + 1;
        queue.push_back(w);
      }
    }
  };
  backward_bfs(sink_, 0);
  const auto height_s = static_cast<std::int32_t>(n);
  if (height[source_] == kUnset) height[source_] = height_s;
  // Vertices cut off from the sink route their excess back to the source.
  backward_bfs(source_, height_s);
  for (std::size_t v = 0; v < n; ++v) {
    if (height[v] == kUnset) {
      // Isolated from both s and t in the residual graph; such a vertex can
      // never be active, park it at the ceiling.
      height[v] = static_cast<std::int32_t>(2 * n);
    }
  }
  height[source_] = height_s;  // BFS from source must not lower it
  std::fill(ws_->height_count.begin(), ws_->height_count.end(), 0);
  for (std::size_t v = 0; v < n; ++v) ++ws_->height_count[height[v]];
  std::fill(ws_->arc_cursor.begin(), ws_->arc_cursor.end(), 0u);
  relabels_since_global_ = 0;
  // Post-relabel-batch seam: exact heights must form a valid labeling
  // (heights only ever rise within a run, so a lowered label here would
  // mean the BFS saw stale flows).
  REPFLOW_CHECK_LABELING(net_, source_, sink_, ws_->height,
                         "push_relabel.post_global_relabel");
}

void PushRelabel::relabel(Vertex v) {
  auto& height = ws_->height;
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  std::int32_t min_height = std::numeric_limits<std::int32_t>::max();
  for (ArcId a : net_.out_arcs(v)) {
    if (net_.residual(a) > 0) {
      min_height = std::min(min_height, height[net_.head(a)]);
    }
  }
  if (min_height == std::numeric_limits<std::int32_t>::max()) {
    // No residual out-arc at all: park at ceiling (cannot be active again
    // without receiving flow, which would create a residual reverse arc).
    min_height = static_cast<std::int32_t>(2 * n) - 1;
  }
  const std::int32_t old_height = height[v];
  const std::int32_t new_height =
      std::min(min_height + 1, static_cast<std::int32_t>(2 * n));
  if (new_height <= old_height) {
    // An admissible arc appeared behind the cursor (created by an incoming
    // push after the cursor passed it).  Rescan instead of lifting.
    ws_->arc_cursor[v] = 0;
    return;
  }
  --ws_->height_count[old_height];
  height[v] = new_height;
  ++ws_->height_count[new_height];
  ws_->arc_cursor[v] = 0;
  ++stats_.relabels;
  ++relabels_since_global_;
  if (options_.use_gap_heuristic && ws_->height_count[old_height] == 0 &&
      old_height < static_cast<std::int32_t>(n)) {
    apply_gap(old_height);
  }
}

void PushRelabel::apply_gap(std::int32_t emptied_height) {
  // Any vertex with emptied_height < h < n can no longer reach the sink;
  // lift it above n so its excess heads back to the source directly.
  auto& height = ws_->height;
  const auto n = static_cast<std::int32_t>(net_.num_vertices());
  for (Vertex v = 0; v < n; ++v) {
    if (v == source_ || v == sink_) continue;
    if (height[v] > emptied_height && height[v] < n) {
      --ws_->height_count[height[v]];
      height[v] = n + 1;
      ++ws_->height_count[height[v]];
      ws_->arc_cursor[v] = 0;
      ++stats_.gap_jumps;
    }
  }
}

void PushRelabel::discharge(Vertex v) {
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  auto arcs = net_.out_arcs(v);
  while (ws_->excess[v] > 0) {
    if (ws_->arc_cursor[v] >= arcs.size()) {
      relabel(v);
      if (ws_->height[v] >= static_cast<std::int32_t>(2 * n)) {
        break;  // at the ceiling with no residual out-arc; cannot be active
      }
      continue;  // relabel reset the cursor; rescan for admissible arcs
    }
    const ArcId a = arcs[ws_->arc_cursor[v]];
    const Vertex w = net_.head(a);
    if (net_.residual(a) > 0 && ws_->height[v] == ws_->height[w] + 1) {
      const Cap delta = std::min(ws_->excess[v], net_.residual(a));
      net_.push_on(a, delta);
      ws_->excess[v] -= delta;
      ws_->excess[w] += delta;
      ++stats_.pushes;
      enqueue_if_active(w);
      if (net_.residual(a) == 0) ++ws_->arc_cursor[v];
    } else {
      ++ws_->arc_cursor[v];
    }
  }
}

Cap PushRelabel::run() {
  ensure_sizes();
  const auto n = static_cast<std::uint64_t>(net_.num_vertices());
  const std::uint64_t global_interval =
      options_.global_relabel_interval_factor == 0
          ? 0
          : options_.global_relabel_interval_factor * n;
  auto& fifo = ws_->fifo;
  while (!fifo.empty()) {
    if (global_interval != 0 && relabels_since_global_ >= global_interval) {
      global_relabel();
    }
    const Vertex v = fifo.pop();
    ws_->in_queue[v] = 0;
    discharge(v);
    // A discharge interrupted by the ceiling guard may leave excess; requeue
    // would spin, so assert-quietly: such a vertex has no residual out-arc
    // and can only become pushable again after receiving flow, which
    // re-enqueues it via enqueue_if_active.
  }
  // Post-run seam: with the queue drained every interior vertex returned
  // its excess (to the sink or back past n to the source), so the preflow
  // is a flow again — the property Algorithms 5/6 conserve across probes.
  REPFLOW_CHECK_FLOW(net_, source_, sink_, "push_relabel.post_run");
  return ws_->excess[sink_];
}

Cap PushRelabel::resume() {
  saturate_source_arcs();
  reinitialize_heights();
  return run();
}

MaxflowResult PushRelabel::solve_from_zero() {
  ensure_sizes();
  net_.clear_flow();
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  std::fill_n(ws_->excess.begin(), n, Cap{0});
  std::fill_n(ws_->in_queue.begin(), n, std::uint8_t{0});
  ws_->fifo.clear();
  const FlowStats before = stats_;
  MaxflowResult result;
  result.value = resume();
  result.stats = stats_ - before;  // per-run view; stats_ stays cumulative
  REPFLOW_CHECK_MAXFLOW(net_, source_, sink_, "push_relabel.solve_from_zero");
  return result;
}

void PushRelabel::reset_excess_after_restore(Cap sink_excess) {
  ensure_sizes();
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  std::fill_n(ws_->excess.begin(), n, Cap{0});
  ws_->excess[sink_] = sink_excess;
  std::fill_n(ws_->in_queue.begin(), n, std::uint8_t{0});
  ws_->fifo.clear();
}

}  // namespace repflow::graph
