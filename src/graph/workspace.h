// Reusable working memory for the max-flow engines.
//
// Every engine needs the same handful of per-vertex/per-arc buffers
// (heights, excess, arc cursors, BFS/DFS scratch, flow snapshots).  When a
// solver is run once per query — the stream-serving regime of ROADMAP.md —
// allocating those buffers per run dominates small-query latency.  A
// MaxflowWorkspace owns them once; engines grow the vectors monotonically
// (capacity is never released between runs), so steady-state reruns on a
// same-footprint network perform zero heap allocations.
//
// Sharing: one workspace may back several engines of a solver as long as
// the engines never run concurrently — each engine re-initializes the
// fields it uses at the start of a run.  Engines used from different
// threads need different workspaces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/flow_network.h"

namespace repflow::graph {

/// Fixed-capacity FIFO of vertices backed by a ring buffer.  Replaces
/// std::deque in the push-relabel engine: capacity is retained across runs
/// and push/pop never allocate.  Each vertex is enqueued at most once at a
/// time, so a capacity of num_vertices + 1 can never overflow.
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

/// Scratch + state buffers for the bipartite b-matching kernel
/// (core::BipartiteMatcher).  The matcher never materializes the flow
/// network: the instance lives in two flat CSR arrays (bucket->replica-disk
/// adjacency and per-disk matched-bucket slot lists) and the matching state
/// in a handful of parallel vectors.  Like MaxflowWorkspace, every vector
/// grows monotonically, so re-binding a same-footprint problem performs
/// zero heap allocations.
struct MatchingWorkspace {
  // --- instance topology (rebuilt per bind) ---
  std::vector<std::int32_t> first;       // bucket CSR offsets, size Q+1
  std::vector<std::int32_t> adj;         // replica disk ids, bucket-major
  std::vector<std::int32_t> in_degree;   // buckets adjacent to each disk
  std::vector<std::int32_t> disk_first;  // slot-segment offsets, size N+1
  std::vector<std::uint8_t> degree_class;   // bit_width(in_degree) per disk
  std::vector<std::int32_t> order_scratch;  // degree-bucketed reorder buffer

  // --- matching state ---
  std::vector<std::int32_t> match;        // bucket -> matched disk, or -1
  std::vector<std::int64_t> cap;          // current sink capacity per disk
  std::vector<std::int32_t> load;         // buckets matched to each disk
  std::vector<std::int32_t> slots;        // per-disk matched-bucket lists
  std::vector<std::int32_t> free_buckets; // currently unmatched buckets

  // --- per-phase scratch (Hopcroft-Karp BFS layering + DFS) ---
  std::vector<std::int32_t> dist;          // bucket BFS layer (-1 = dead)
  std::vector<std::uint32_t> bucket_epoch; // phase-stamped visited flags
  std::vector<std::uint32_t> disk_epoch;
  std::uint32_t epoch = 0;
  std::vector<std::int32_t> queue;        // BFS frontier, capacity Q
  std::vector<std::int32_t> stack_bucket; // DFS frames: bucket per depth
  std::vector<std::int32_t> stack_arc;    //   current adjacency index
  std::vector<std::int32_t> stack_slot;   //   current slot index (-1 = none)

  std::size_t retained_bytes() const {
    return (first.capacity() + adj.capacity() + in_degree.capacity() +
            disk_first.capacity() + match.capacity() + load.capacity() +
            slots.capacity() + free_buckets.capacity() + dist.capacity() +
            queue.capacity() + stack_bucket.capacity() +
            stack_arc.capacity() + stack_slot.capacity() +
            order_scratch.capacity()) *
               sizeof(std::int32_t) +
           cap.capacity() * sizeof(std::int64_t) +
           (bucket_epoch.capacity() + disk_epoch.capacity()) *
               sizeof(std::uint32_t) +
           degree_class.capacity() * sizeof(std::uint8_t);
  }
};

/// The pooled buffer set.  Field groups are disjoint per engine family;
/// see each engine's header for which fields it claims.
struct MaxflowWorkspace {
  // --- push-relabel state (PushRelabel) ---
  std::vector<Cap> excess;
  std::vector<std::int32_t> height;
  std::vector<std::int32_t> height_count;  // gap heuristic: count per height
  std::vector<std::uint8_t> in_queue;
  VertexFifo fifo;

  // --- admissible-arc cursors (PushRelabel) ---
  std::vector<std::uint32_t> arc_cursor;

  // --- search scratch (global relabel BFS, FordFulkerson) ---
  std::vector<Vertex> vertex_scratch;      // BFS queues / DFS stacks
  std::vector<std::uint32_t> visited_mark; // epoch-stamped visited flags
  std::uint32_t mark_epoch = 0;            // shared so stale marks never alias
  std::vector<ArcId> parent_arc;           // BFS predecessor arcs
  std::vector<ArcId> arc_path;             // DFS augmenting path

  // --- flow snapshots (Algorithm 6 driver) ---
  std::vector<Cap> flow_snapshot;

  // --- bipartite b-matching kernel (core::BipartiteMatcher) ---
  MatchingWorkspace matching;

  /// Capacity-based footprint estimate (feeds the workspace.retained_bytes
  /// gauge); counts retained heap blocks, not live elements.
  std::size_t retained_bytes() const {
    return excess.capacity() * sizeof(Cap) +
           height.capacity() * sizeof(std::int32_t) +
           height_count.capacity() * sizeof(std::int32_t) +
           in_queue.capacity() * sizeof(std::uint8_t) +
           fifo.retained_bytes() +
           arc_cursor.capacity() * sizeof(std::uint32_t) +
           vertex_scratch.capacity() * sizeof(Vertex) +
           visited_mark.capacity() * sizeof(std::uint32_t) +
           parent_arc.capacity() * sizeof(ArcId) +
           arc_path.capacity() * sizeof(ArcId) +
           flow_snapshot.capacity() * sizeof(Cap) +
           matching.retained_bytes();
  }
};

}  // namespace repflow::graph
