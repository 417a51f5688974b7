// Asynchronous lock-free multithreaded push-relabel (paper Section V,
// following Hong & He, IEEE TPDS 22(6), 2011).
//
// Worker threads drain a lock-free queue of active vertices.  A thread
// holding vertex u finds u's lowest-height residual neighbor v̄; if
// height(u) > height(v̄) it pushes min(excess(u), residual(u, v̄)) with
// atomic fetch-add/sub on the arc flow and both excesses, otherwise it
// relabels u to height(v̄) + 1 (heights are written only by the owning
// thread).  No locks or barriers anywhere — only atomic RMW, per [31].
//
// Safety of the stale reads: a vertex is owned by at most one thread at a
// time (enqueue-flag protocol), so only the owner decreases excess(u) and
// residual(u, v); concurrent threads can only *increase* them, which keeps
// every computed delta valid.
//
// Algorithm 6 runs it in place of the sequential PushRelabel through the
// same integrated interface (Section V changes only line 29): resume()
// conserves the flows already on the FlowNetwork, saturates residual
// source arcs, recomputes exact heights, and runs the multithreaded loop.
//
// No copy of the network: the workers read the FlowNetwork's CSR
// adjacency, heads and capacities directly and push on its own per-arc
// flow array.  The flow array and the engine's per-vertex arrays (excess,
// height, queued flag) are plain vectors that every access reaches through
// a std::atomic_ref temporary; none is ever stored, because C++20 allows
// the driver's plain reads and writes between resumes (save, restore,
// capacity changes) only while no atomic_ref to the cell exists.  The
// worker pool's handoff orders those plain accesses against the workers.
// Rebinding to a same-footprint problem performs zero heap allocations
// and the worker pool persists across queries.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/maxflow.h"
#include "obs/metrics.h"
#include "parallel/mpmc_queue.h"
#include "parallel/worker_pool.h"

namespace repflow::parallel {

class ParallelPushRelabel {
 public:
  /// An engine of `threads` workers over `net` with no endpoints yet:
  /// rebind() before the first resume().  Throws on threads < 1.
  ParallelPushRelabel(graph::FlowNetwork& net, int threads);
  ParallelPushRelabel(graph::FlowNetwork& net, graph::Vertex source,
                      graph::Vertex sink, int threads);

  ParallelPushRelabel(const ParallelPushRelabel&) = delete;
  ParallelPushRelabel& operator=(const ParallelPushRelabel&) = delete;

  /// Re-validate the endpoints, finalize the network's CSR adjacency (so
  /// no worker can trigger its lazy rebuild) and size the per-vertex
  /// arrays in place.
  void rebind(graph::Vertex source, graph::Vertex sink);

  /// Retained working-memory footprint across all reusable buffers.
  std::size_t retained_bytes() const;

  /// Integrated run from the network's current flows; returns the flow
  /// value reached (the sink's excess).  Worker threads persist across
  /// calls (Algorithm 6 resumes many times per query), and the caller is
  /// worker 0.  The worker pool's handoff is the only synchronization
  /// outside the push/relabel atomics, and it parks a thread only after a
  /// bounded spin, outside the push/relabel operations as [31] requires.
  graph::Cap resume();

  void reset_excess_after_restore(graph::Cap sink_excess);

  const graph::FlowStats& stats() const { return stats_; }

 private:
  /// Per-worker operation counters (each slot written by one thread only).
  /// `queue_yields` counts scheduler yields while the work queue was empty
  /// but other threads still held active vertices — the engine's contention
  /// signal.
  struct ThreadCounters {
    std::uint64_t pushes = 0;
    std::uint64_t relabels = 0;
    std::uint64_t discharges = 0;
    std::uint64_t queue_yields = 0;
  };

  /// Saturate every residual source arc, crediting the heads' excess
  /// (Algorithm 5 lines 4-10).  Single-threaded prologue.
  void saturate_source_arcs();

  /// Single-threaded epilogue (workers quiesced): return the excess of
  /// stranded vertices to the source by walking positive-flow arcs
  /// backward, canceling flow cycles encountered on the way.  Equivalent
  /// to phase two of the classic push-relabel algorithm, but without any
  /// relabeling.
  void drain_stranded_excess();

  /// Exact heights (graph/exact_heights.h) into bfs_height_ from relaxed
  /// flow loads, then published to height_: distance to the sink, source-
  /// side vertices at n plus their distance to the source, unreached ones
  /// at 2n.  Must run quiesced.
  void exact_heights();
  void seed_queue();
  void worker();
  void discharge(graph::Vertex v);
  void enqueue(graph::Vertex v);

  /// Cooperative global relabeling (the role of [31]'s nonblocking global
  /// relabel thread): when the relabel budget is exhausted, one worker
  /// CAS-elects itself coordinator, the others park at safe checkpoints
  /// (loop boundaries — never mid-push), and the coordinator recomputes
  /// exact heights.  Pure atomics; returns true if this thread paused or
  /// coordinated (caller should restart its loop iteration).
  bool maybe_global_relabel();

  graph::FlowNetwork& net_;
  graph::Vertex source_ = graph::kInvalidVertex;
  graph::Vertex sink_ = graph::kInvalidVertex;
  int threads_;
  graph::FlowStats stats_;

  // Shared per-vertex state, reached only through std::atomic_ref (see
  // the header comment); the flow array is the network's own.
  std::vector<graph::Cap> excess_;
  std::vector<std::int32_t> height_;
  std::vector<std::uint8_t> queued_;
  std::unique_ptr<MpmcQueue<graph::Vertex>> queue_;
  std::size_t queue_capacity_ = 0;
  std::atomic<std::int64_t> active_count_{0};

  // Single-threaded scratch for exact_heights / drain, kept across
  // runs so the steady-state path allocates nothing.
  std::vector<std::int32_t> bfs_height_;
  std::vector<graph::Vertex> bfs_queue_;
  std::vector<std::int32_t> drain_visit_pos_;
  std::vector<graph::ArcId> drain_walk_;

  // Global-relabel coordination (atomics only; no locks on the hot path).
  std::atomic<int> gr_state_{0};   // 0 = normal, 1 = pause requested
  std::atomic<int> gr_paused_{0};
  std::atomic<int> gr_exited_{0};  // workers that finished this run
  std::atomic<std::uint64_t> relabels_since_gr_{0};
  std::uint64_t gr_threshold_ = 0;

  // Per-run operation counters folded into stats_ and the obs registry
  // after each run.
  std::vector<ThreadCounters> counters_;

  // Registry handles resolved once at construction (lookup is mutex-guarded;
  // the fold in resume() must not be).
  struct RegistryHandles {
    static RegistryHandles make(int threads);
    obs::Counter& pushes;
    obs::Counter& relabels;
    obs::Counter& discharges;
    obs::Counter& queue_yields;
    obs::Counter& resumes;
    obs::Gauge& contention;
    std::vector<obs::Counter*> thread_pushes;
    std::vector<obs::Counter*> thread_relabels;
    std::vector<obs::Counter*> thread_discharges;
    std::vector<obs::Counter*> thread_queue_yields;
  };
  RegistryHandles registry_;

  // Persistent worker pool (spawns threads_ - 1 workers; the caller is
  // worker 0).  Declared last so its threads are joined before any state
  // they touch is destroyed.
  WorkerPool pool_;
};

}  // namespace repflow::parallel
