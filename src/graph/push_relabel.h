// FIFO push-relabel max-flow engine (Goldberg-Tarjan) with the
// Cherkassky-Goldberg exact-height (global relabeling) and gap heuristics.
//
// This class is designed for *integrated* use by the retrieval algorithms of
// the paper: its height/excess state persists between calls so Algorithm 5/6
// can conserve flows across capacity changes, re-saturate only source arcs
// with residual capacity, and re-run the push/relabel loop from the
// preserved preflow.
//
// The engine maintains the invariant that after run() returns, every vertex
// except source and sink has zero excess: excess that cannot reach the sink
// is returned to the source by relabeling past n (heights are bounded by
// 2n-1), exactly as required for the paper's flow-conservation scheme.
//
// The engine owns its working buffers (excess, heights, arc cursors, the
// active-vertex FIFO and the global-relabel BFS queue).  They grow
// monotonically and are retained across runs and across rebind(), so a
// persistent engine reruns on a same-footprint network without allocating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/maxflow.h"

namespace repflow::graph {

/// How heights are initialized at the start of a (re)run, and with them
/// which heuristics run.
enum class HeightInit {
  /// The paper's Algorithm 4/5: all zero except height[s] = n, and neither
  /// the gap heuristic nor periodic global relabeling.
  kZero,
  /// Exact distances to the sink (Cherkassky-Goldberg [19], computed by
  /// graph/exact_heights.h), recomputed after every n relabels, plus the
  /// gap heuristic.
  kGlobalRelabel,
};

/// Fixed-capacity FIFO of vertices backed by a ring buffer: capacity is
/// retained across runs and push/pop never allocate.  Each vertex is
/// enqueued at most once at a time, so a capacity of num_vertices + 1 can
/// never overflow.
class VertexFifo {
 public:
  /// Make room for `vertices` distinct entries; clears the queue when the
  /// ring has to grow (callers resize only between runs).
  void ensure_capacity(std::size_t vertices) {
    if (buf_.size() < vertices + 1) {
      buf_.resize(vertices + 1);
      head_ = tail_ = 0;
    }
  }

  bool empty() const { return head_ == tail_; }

  void push(Vertex v) {
    buf_[tail_] = v;
    tail_ = next(tail_);
  }

  Vertex pop() {
    const Vertex v = buf_[head_];
    head_ = next(head_);
    return v;
  }

  void clear() { head_ = tail_ = 0; }

  std::size_t retained_bytes() const {
    return buf_.capacity() * sizeof(Vertex);
  }

 private:
  std::size_t next(std::size_t i) const {
    return i + 1 == buf_.size() ? 0 : i + 1;
  }

  std::vector<Vertex> buf_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

class PushRelabel {
 public:
  /// An engine over `net` with no endpoints yet: rebind() before the first
  /// run.  A solver shell constructs it next to its own network and
  /// rebinds at the start of every solve.
  explicit PushRelabel(FlowNetwork& net,
                       HeightInit init = HeightInit::kGlobalRelabel);
  PushRelabel(FlowNetwork& net, Vertex source, Vertex sink,
              HeightInit init = HeightInit::kGlobalRelabel);
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

  /// Drain the FIFO queue with push/relabel operations; returns excess[t],
  /// i.e. the value of the current flow.
  Cap run();

  /// Lines 4-14 of Algorithm 5, then run(): saturate the residual source
  /// arcs, reset heights, and push/relabel from the conserved flows.
  Cap resume();

  // ---- State inspection / manipulation for Algorithm 6 ----

  /// After restoring a flow snapshot into the network, realign the engine's
  /// excess bookkeeping: all conserved vertices zero, sink = `sink_excess`.
  void reset_excess_after_restore(Cap sink_excess);

  const FlowStats& stats() const { return stats_; }

  /// Capacity-based footprint of the retained working buffers (feeds the
  /// workspace.retained_bytes gauge); counts heap blocks, not live elements.
  std::size_t retained_bytes() const;

 private:
  /// Lines 4-10 of Algorithm 5: for every source out-arc with residual
  /// capacity, saturate it, credit the head's excess, and activate the head.
  /// Existing flows are conserved.  Also re-activates any vertex that still
  /// carries excess from an earlier run (none after a completed run).
  void saturate_source_arcs();

  /// Lines 11-14 of Algorithm 5: reset heights (per the engine's
  /// HeightInit) and zero the source's excess bookkeeping.
  void reinitialize_heights();

  void validate_endpoints() const;
  void ensure_sizes();
  void enqueue_if_active(Vertex v);
  void discharge(Vertex v);
  void relabel(Vertex v);
  void apply_gap(std::int32_t emptied_height);
  void global_relabel();

  FlowNetwork& net_;
  Vertex source_ = kInvalidVertex;
  Vertex sink_ = kInvalidVertex;
  HeightInit init_;
  FlowStats stats_;

  std::vector<Cap> excess_;
  std::vector<std::int32_t> height_;
  std::vector<std::int32_t> height_count_;  // gap heuristic: count per height
  std::vector<std::uint8_t> in_queue_;
  std::vector<std::uint32_t> arc_cursor_;   // admissible-arc scan position
  std::vector<Vertex> bfs_queue_;           // global relabel
  VertexFifo fifo_;
  std::uint64_t relabels_since_global_ = 0;
};

}  // namespace repflow::graph
