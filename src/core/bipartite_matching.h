// The bipartite b-matching fast path.
//
// Every retrieval network the paper builds (Figures 3/4) is the same shape:
// unit source->bucket and bucket->disk arcs, with all the interesting
// capacity on the disk->sink arcs.  A flow of value |Q| is therefore
// exactly a degree-constrained bipartite matching: each bucket matched to
// one replica disk, each disk j holding at most cap_j buckets.  Solving it
// as a matching drops the general-graph machinery entirely — no explicit
// s/t vertices, no reverse-arc bookkeeping, no per-vertex labels or excess:
// the instance is two flat CSR arrays (bucket->replica adjacency and
// per-disk matched-bucket slot lists) plus a per-disk residual capacity
// cap_j - load_j.
//
// BipartiteMatcher is a Hopcroft-Karp kernel on that representation:
// a global BFS computes the layered distance of every unmatched bucket to
// the nearest disk with spare capacity, then batched DFS passes augment a
// maximal set of shortest vertex-disjoint alternating paths per phase —
// O(E*sqrt(V)) total versus Ford-Fulkerson's O(V*E).
//
// The paper's central trick — conserving flow across sink-capacity changes
// (Algorithms 2/3/5/6) — carries over verbatim: capacities are monotone in
// the candidate response time t, so a matching found under caps(t') stays
// feasible for every t >= t', and augment_to_maximum() resumes from the
// retained assignment, touching only the buckets still unmatched.
// IntegratedMatchingSolver runs Algorithm 6's search (BinaryScalingDriver)
// on this kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/binary_scaling.h"
#include "core/problem.h"
#include "core/schedule.h"
#include "core/solver.h"
#include "obs/metrics.h"

namespace repflow::core {

/// Scratch + state buffers of the b-matching kernel, owned by its
/// BipartiteMatcher.  The matcher never materializes the flow network: the
/// instance lives in two flat CSR arrays (bucket->replica-disk adjacency
/// and per-disk matched-bucket slot lists) and the matching state in a
/// handful of parallel vectors.  Every vector grows monotonically, so
/// re-binding a same-footprint problem performs zero heap allocations.
struct MatchingWorkspace {
  // --- instance topology (rebuilt per bind) ---
  std::vector<std::int32_t> first;       // bucket CSR offsets, size Q+1
  std::vector<std::int32_t> adj;         // replica disk ids, bucket-major
  std::vector<std::int32_t> in_degree;   // buckets adjacent to each disk
  std::vector<std::int32_t> disk_first;  // slot-segment offsets, size N+1

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
  std::vector<std::int32_t> disk_layer;   // BFS layer of a disk's slots
  std::vector<std::int32_t> disk_cursor;  // DFS scan position in its slots
  std::vector<std::int32_t> queue;        // BFS frontier, capacity Q
  std::vector<std::int32_t> stack_bucket; // DFS frames: bucket per depth
  std::vector<std::int32_t> stack_arc;    //   current adjacency index
  std::vector<std::int32_t> stack_slot;   //   current slot index (-1 = none)

  /// Capacity-based footprint (counts retained heap blocks).
  std::size_t retained_bytes() const {
    return (first.capacity() + adj.capacity() + in_degree.capacity() +
            disk_first.capacity() + match.capacity() + load.capacity() +
            slots.capacity() + free_buckets.capacity() + dist.capacity() +
            disk_layer.capacity() + disk_cursor.capacity() +
            queue.capacity() + stack_bucket.capacity() +
            stack_arc.capacity() + stack_slot.capacity()) *
               sizeof(std::int32_t) +
           cap.capacity() * sizeof(std::int64_t) +
           (bucket_epoch.capacity() + disk_epoch.capacity()) *
               sizeof(std::uint32_t);
  }
};

class BipartiteMatcher {
 public:
  /// Bind `problem` (rebuilding the CSR topology in the matcher's own
  /// buffers; same-footprint rebinds allocate nothing) and clear the
  /// matching.  `problem` must outlive the matcher's use.
  void rebind(const RetrievalProblem& problem);

  /// Set every disk capacity from candidate response time `t` by the same
  /// rule as RetrievalNetwork::capacity_for_time
  /// (SystemConfig::slots_within).  Does not touch the matching: callers
  /// rely on capacity monotonicity (only restore_matching() shrinks it).
  void set_capacities_for_time(double t);

  /// Per-disk replica in-degrees.
  std::span<const std::int32_t> in_degrees() const { return ws_.in_degree; }

  /// The current per-disk capacities.
  const std::vector<std::int64_t>& capacities() const { return ws_.cap; }

  /// Hopcroft-Karp phases until no augmenting path remains; returns the
  /// matched bucket count (== |Q| iff the current capacities are feasible).
  /// Resumable: the retained matching is kept and only free buckets are
  /// augmented from.
  std::int64_t augment_to_maximum();

  std::int64_t matched() const { return matched_; }

  /// Snapshot/restore of the bucket->disk assignment (the Algorithm 6
  /// conserve-and-backtrack step).  Restoring rebuilds the per-disk loads
  /// and slot lists in O(Q + N) without allocating.
  void save_matching_into(std::vector<std::int32_t>& out) const;
  void restore_matching(const std::vector<std::int32_t>& saved);

  /// Emit the matching as a Schedule (requires matched() == |Q|; throws
  /// std::logic_error otherwise).  Allocation-free on reused schedules.
  void extract_schedule_into(Schedule& schedule) const;

  /// Kernel counters since the last rebind.  Phases = global BFS passes,
  /// augmentations = augmenting paths applied, visits = every adjacency
  /// entry and slot the BFS reads plus every arc the DFS probes and slot
  /// its scan reads.
  std::int64_t phases() const { return phases_; }
  std::int64_t augmentations() const { return augmentations_; }
  std::int64_t visits() const { return visits_; }

  /// Fold the counters and path lengths since the last rebind into the
  /// `matching.*` instruments.  Call once per rebind, after the last
  /// augment_to_maximum(): the kernel keeps them in plain members so the
  /// augmenting loop touches no atomics.
  void publish_metrics() const;

  /// The kernel's own buffers, read-only.
  const MatchingWorkspace& workspace() const { return ws_; }

 private:
  bool bfs_phase(std::int32_t& limit);
  bool try_augment(std::int32_t root, std::int32_t limit);
  void augment_pass(std::int32_t limit);

  const RetrievalProblem* problem_ = nullptr;
  MatchingWorkspace ws_;
  std::int32_t q_ = 0;
  std::int32_t n_ = 0;
  std::int64_t matched_ = 0;
  std::int64_t phases_ = 0;
  std::int64_t augmentations_ = 0;
  std::int64_t visits_ = 0;
  obs::HistogramTally path_len_;  // augmenting path lengths
};

/// Algorithm 6's search (BinaryScalingDriver) running on the matching
/// kernel instead of a push-relabel engine; the snapshot is the bucket->disk
/// assignment.  Catalog entry: SolverKind::kIntegratedMatching.
class IntegratedMatchingSolver : private ScalingKernel {
 public:
  /// Reusable shell: construct once, serve many problems via solve_into().
  IntegratedMatchingSolver() = default;

  /// Rebuild internal state in place and solve `problem`; steady-state
  /// calls on same-footprint problems perform zero heap allocations.
  void solve_into(const RetrievalProblem& problem, SolveResult& result);

  /// Retained working-memory footprint (matcher buffers + snapshot buffer +
  /// candidate buffer).
  std::size_t retained_bytes() const;

 private:
  void set_capacities_for_time(double t) override {
    matcher_.set_capacities_for_time(t);
  }
  std::int64_t resume() override { return matcher_.augment_to_maximum(); }
  void save() override { matcher_.save_matching_into(saved_match_); }
  void restore() override { matcher_.restore_matching(saved_match_); }
  void seed(const std::vector<std::int32_t>& disk_of_bucket) override {
    matcher_.restore_matching(disk_of_bucket);
  }

  BipartiteMatcher matcher_;
  BinaryScalingDriver driver_;
  std::vector<std::int32_t> saved_match_;
};

}  // namespace repflow::core
