#include "graph/push_relabel.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <stdexcept>

#include "analysis/check.h"
#include "graph/exact_heights.h"

namespace repflow::graph {

namespace {

// Branch-free blocked scan of arcs[from, end) for the first admissible arc
// (residual, and leading to a vertex at height `target`, one below the
// discharging vertex), returning its position or arcs.size().  Sixteen-arc
// blocks fold the predicate into a bitmask with no per-arc branch and
// countr_zero picks the hit, as the matching kernel's scan_slots does: both
// predicates depend on the flow state, so a per-arc branch mispredicts.
std::uint32_t first_admissible(const FlowNetwork& net,
                               const std::span<const ArcId> arcs,
                               const std::int32_t* height, std::uint32_t from,
                               const std::int32_t target) {
  const auto end = static_cast<std::uint32_t>(arcs.size());
  while (from < end) {
    const std::uint32_t block_end = std::min(from + 16, end);
    unsigned mask = 0;
    for (std::uint32_t k = from; k < block_end; ++k) {
      const ArcId a = arcs[k];
      const unsigned ok = static_cast<unsigned>(net.residual(a) > 0) &
                          static_cast<unsigned>(height[net.head(a)] == target);
      mask |= ok << (k - from);
    }
    if (mask != 0) {
      return from + static_cast<std::uint32_t>(std::countr_zero(mask));
    }
    from = block_end;
  }
  return end;
}

}  // namespace

PushRelabel::PushRelabel(FlowNetwork& net, HeightInit init)
    : net_(net), init_(init) {}

PushRelabel::PushRelabel(FlowNetwork& net, Vertex source, Vertex sink,
                         HeightInit init)
    : PushRelabel(net, init) {
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
  if (excess_.size() < n) {
    excess_.resize(n, 0);
    height_.resize(n, 0);
    in_queue_.resize(n, 0);
    height_count_.assign(2 * n + 2, 0);
    bfs_queue_.resize(n + 1);
  }
  if (arc_cursor_.size() < n) arc_cursor_.resize(n, 0);
  fifo_.ensure_capacity(n);
}

void PushRelabel::rebind(Vertex source, Vertex sink) {
  source_ = source;
  sink_ = sink;
  validate_endpoints();
  ensure_sizes();
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  std::fill_n(excess_.begin(), n, Cap{0});
  std::fill_n(in_queue_.begin(), n, std::uint8_t{0});
  fifo_.clear();
  relabels_since_global_ = 0;
}

void PushRelabel::enqueue_if_active(Vertex v) {
  if (v == source_ || v == sink_) return;
  if (excess_[v] > 0 && !in_queue_[v]) {
    in_queue_[v] = 1;
    fifo_.push(v);
  }
}

void PushRelabel::saturate_source_arcs() {
  ensure_sizes();
  for (ArcId a : net_.out_arcs(source_)) {
    const Cap delta = net_.residual(a);
    if (delta <= 0) continue;
    net_.push_on(a, delta);
    const Vertex v = net_.head(a);
    excess_[v] += delta;
    enqueue_if_active(v);
  }
}

void PushRelabel::reinitialize_heights() {
  ensure_sizes();
  excess_[source_] = 0;
  if (init_ == HeightInit::kZero) {
    const auto n = static_cast<std::size_t>(net_.num_vertices());
    std::fill_n(height_.begin(), n, 0);
    height_[source_] = static_cast<std::int32_t>(n);
    std::fill_n(height_count_.begin(), 2 * n + 1, 0);
    height_count_[0] = static_cast<std::int32_t>(n - 1);
    height_count_[n] = 1;
    std::fill_n(arc_cursor_.begin(), n, 0u);
  } else {
    global_relabel();
  }
  relabels_since_global_ = 0;
}

void PushRelabel::global_relabel() {
  ++stats_.global_relabels;
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  compute_exact_heights(
      net_, source_, sink_, [this](ArcId a) { return net_.residual(a); },
      height_, bfs_queue_);
  // Heights never exceed 2n, so the live counts are [0, 2n].
  std::fill_n(height_count_.begin(), 2 * n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    ++height_count_[height_[v]];
    arc_cursor_[v] = 0;
  }
  relabels_since_global_ = 0;
  // Post-relabel-batch seam: exact heights must form a valid labeling
  // (heights only ever rise within a run, so a lowered label here would
  // mean the BFS saw stale flows).
  REPFLOW_CHECK_LABELING(net_, source_, sink_, height_,
                         "push_relabel.post_global_relabel");
}

void PushRelabel::relabel(Vertex v) {
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  // Lowest head over the residual out-arcs, without a branch: heights are
  // never negative, so a saturated arc's head reads as UINT32_MAX.
  std::uint32_t min_height = std::numeric_limits<std::uint32_t>::max();
  for (const ArcId a : net_.out_arcs(v)) {
    const std::uint32_t blocked =
        0u - static_cast<std::uint32_t>(net_.residual(a) <= 0);
    min_height = std::min(
        min_height, static_cast<std::uint32_t>(height_[net_.head(a)]) | blocked);
  }
  // No residual out-arc at all parks v at the ceiling 2n: it cannot be
  // active again without receiving flow, which would create a residual
  // reverse arc.
  const auto ceiling = static_cast<std::int32_t>(2 * n);
  const std::int32_t new_height =
      static_cast<std::int32_t>(std::min(
          min_height, static_cast<std::uint32_t>(ceiling - 1))) +
      1;
  const std::int32_t old_height = height_[v];
  if (new_height <= old_height) {
    // An admissible arc appeared behind the cursor (created by an incoming
    // push after the cursor passed it).  Rescan instead of lifting.
    arc_cursor_[v] = 0;
    return;
  }
  --height_count_[old_height];
  height_[v] = new_height;
  ++height_count_[new_height];
  arc_cursor_[v] = 0;
  ++stats_.relabels;
  ++relabels_since_global_;
  if (init_ == HeightInit::kGlobalRelabel &&
      height_count_[old_height] == 0 &&
      old_height < static_cast<std::int32_t>(n)) {
    apply_gap(old_height);
  }
}

void PushRelabel::apply_gap(std::int32_t emptied_height) {
  // Any vertex with emptied_height < h < n can no longer reach the sink;
  // lift it above n so its excess heads back to the source directly.
  const auto n = static_cast<std::int32_t>(net_.num_vertices());
  for (Vertex v = 0; v < n; ++v) {
    if (v == source_ || v == sink_) continue;
    if (height_[v] > emptied_height && height_[v] < n) {
      --height_count_[height_[v]];
      height_[v] = n + 1;
      ++height_count_[height_[v]];
      arc_cursor_[v] = 0;
      ++stats_.gap_jumps;
    }
  }
}

void PushRelabel::discharge(Vertex v) {
  const auto ceiling = static_cast<std::int32_t>(2 * net_.num_vertices());
  const std::span<const ArcId> arcs = net_.out_arcs(v);
  // relabel() and apply_gap() reset the cursor through arc_cursor_ itself.
  std::uint32_t& cursor = arc_cursor_[v];
  while (excess_[v] > 0) {
    cursor = first_admissible(net_, arcs, height_.data(), cursor,
                              height_[v] - 1);
    if (cursor >= arcs.size()) {
      relabel(v);
      if (height_[v] >= ceiling) {
        break;  // at the ceiling with no residual out-arc; cannot be active
      }
      continue;  // relabel reset the cursor; rescan for admissible arcs
    }
    const ArcId a = arcs[cursor];
    const Vertex w = net_.head(a);
    const Cap delta = std::min(excess_[v], net_.residual(a));
    net_.push_on(a, delta);
    excess_[v] -= delta;
    excess_[w] += delta;
    ++stats_.pushes;
    enqueue_if_active(w);
    if (net_.residual(a) == 0) ++cursor;
  }
}

Cap PushRelabel::run() {
  ensure_sizes();
  // kGlobalRelabel recomputes exact heights after every n relabels; kZero
  // never does.
  const std::uint64_t global_interval =
      init_ == HeightInit::kGlobalRelabel
          ? static_cast<std::uint64_t>(net_.num_vertices())
          : 0;
  while (!fifo_.empty()) {
    if (global_interval != 0 && relabels_since_global_ >= global_interval) {
      global_relabel();
    }
    const Vertex v = fifo_.pop();
    in_queue_[v] = 0;
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
  return excess_[sink_];
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
  std::fill_n(excess_.begin(), n, Cap{0});
  std::fill_n(in_queue_.begin(), n, std::uint8_t{0});
  fifo_.clear();
  const FlowStats before = stats_;
  MaxflowResult result;
  result.value = resume();
  result.stats = stats_ - before;  // per-run view; stats_ stays cumulative
  REPFLOW_CHECK_MAXFLOW(net_, source_, sink_, "push_relabel.solve_from_zero");
  return result;
}

std::size_t PushRelabel::retained_bytes() const {
  return excess_.capacity() * sizeof(Cap) +
         (height_.capacity() + height_count_.capacity()) *
             sizeof(std::int32_t) +
         in_queue_.capacity() * sizeof(std::uint8_t) +
         arc_cursor_.capacity() * sizeof(std::uint32_t) +
         bfs_queue_.capacity() * sizeof(Vertex) + fifo_.retained_bytes();
}

void PushRelabel::reset_excess_after_restore(Cap sink_excess) {
  ensure_sizes();
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  std::fill_n(excess_.begin(), n, Cap{0});
  excess_[sink_] = sink_excess;
  std::fill_n(in_queue_.begin(), n, std::uint8_t{0});
  fifo_.clear();
}

}  // namespace repflow::graph
