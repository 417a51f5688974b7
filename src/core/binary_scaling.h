// Algorithm 6's search, written once for every binary-scaling solver.
//
// The paper bisects a real-valued t inside [tmin, tmax] until the window is
// narrower than the fastest disk's block time, then finishes with
// IncrementMinCost steps.  But the optimum T* is always a completion time
// D_j + X_j + k*C_j with k <= min(in-degree_j, |Q|), and exact bounds pin
// it tighter than the paper's window:
//
//   * upper: a greedy pass sends each bucket, in query order, to the replica
//     with the least next completion.  Its T is feasible and a candidate.
//   * lower, by count: feasibility at t needs |Q| units across the sink
//     cut, so at least |Q| candidates <= t; T* is at least the |Q|-th
//     smallest one.
//   * lower, by bucket: every bucket needs one of its replicas, so T* is at
//     least max over buckets b of min over j in R(b) of D_j + X_j + C_j, a
//     k = 1 candidate.  The greedy pass computes it on the way.
//
// The driver searches the candidates in the closed window [L, greedy T], L
// the larger lower bound.  The live window is, as a multiset, the
// candidates of rank >= |Q| - 1 (from zero, in sorted order) that lie in
// [L, greedy T).  While collecting, the driver counts the candidates below
// the bucket bound B and those at most B:
//
//   * at least |Q| at most B (most solves): the |Q|-th smallest is at most
//     B, so L = B.  Every candidate above B has rank >= |Q|, so one pass
//     keeps those below the greedy T, plus the copies of B of rank
//     >= |Q| - 1, which number (at most B) - max(below B, |Q| - 1).
//   * otherwise the |Q|-th smallest exceeds B and is L; an nth_element at
//     |Q| - 1 and a partition at the greedy T cut the window.
//
// The selection alone would build the same window on every solve; the
// bucket-bound pass stays because it measured faster end to end
// (docs/PERFORMANCE.md, "Measured: one selection for every solve").
//
// The window is sorted once and bisected by index.  Each probe is the
// middle element of the live range, the median an nth_element over that
// range would pick; a feasible probe keeps only the candidates below it
// (lower_bound), an infeasible one only those above it (upper_bound).  So
// the probes are those of a selection search over the same multiset.
// Every probe discards its median, so a solve takes at most
// ceil(log2 n) + 1 resumes for the n candidates in the window, with no
// IncrementMinCost tail.  The greedy pass, the collection and the cut are
// O(arcs); sorting the w live values adds O(w log w).
//
// Flow conservation is the paper's: capacities are monotone in t, so an
// infeasible probe's flow stays valid for every larger t.  Infeasible probes
// snapshot their flow; a feasible probe restores the last snapshot before
// the search moves below it.
//
// The same monotonicity lets the search start from the greedy schedule
// instead of zero flow.  Every probe t is at least the lower bound L, so the
// greedy schedule trimmed to caps(L) (each disk keeps its first
// slots_within(d, L) greedy buckets in query order, the rest start
// unassigned) is a valid flow under every probe.  The kernel is seeded with
// it before the first snapshot, so it is also what a feasible first probe
// falls back to.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/problem.h"
#include "core/solver.h"

namespace repflow::core {

/// The four calls the driver makes into a max-flow kernel.
class ScalingKernel {
 public:
  /// Grant every disk the slots completed by `t`
  /// (SystemConfig::slots_within).
  virtual void set_capacities_for_time(double t) = 0;
  /// Augment from the conserved flow to a maximum; returns its value.
  virtual std::int64_t resume() = 0;
  /// Snapshot the current flow.
  virtual void save() = 0;
  /// Return to the last snapshot.
  virtual void restore() = 0;
  /// Start from the flow that sends bucket b to disk `disk_of_bucket[b]`
  /// (one of its replicas), or nowhere when that entry is -1.  Called once,
  /// on zero flow, before the first save(); the driver guarantees the flow
  /// fits every probe's capacities.
  virtual void seed(const std::vector<std::int32_t>& disk_of_bucket) = 0;

 protected:
  ~ScalingKernel() = default;
};

class BinaryScalingDriver {
 public:
  /// Find the optimal response time of `problem`, whose disk in-degrees
  /// are `in_degree`, and leave `kernel` holding a flow of value |Q| under
  /// that time's capacities.  The kernel must start from zero flow; the
  /// driver seeds it with the trimmed greedy schedule.  Each
  /// resume counts one result.binary_probes and runs under the span
  /// `probe_span` (a string literal).  Throws std::invalid_argument on a
  /// bucket without a replica and std::logic_error if the kernel reports
  /// the optimum infeasible.
  void run(const RetrievalProblem& problem,
           std::span<const std::int32_t> in_degree, ScalingKernel& kernel,
           SolveResult& result, const char* probe_span);

  /// Retained footprint of the candidate buffer, the greedy schedule and
  /// the per-disk next completions.
  std::size_t retained_bytes() const {
    return (candidates_.capacity() + next_slot_.capacity()) * sizeof(double) +
           greedy_load_.capacity() * sizeof(std::int64_t) +
           greedy_disk_.capacity() * sizeof(std::int32_t);
  }

 private:
  struct GreedyPass {
    double response;      // T of the greedy schedule, an upper bound on T*
    double bucket_bound;  // max over buckets of the least first completion
  };

  /// The greedy schedule: each bucket, in query order, goes to the replica
  /// with the least completion_time(d, load_d + 1); the first-listed
  /// replica wins ties.  The picks are left in greedy_disk_.  The same scan
  /// takes each bucket's least completion_time(d, 1).  The next
  /// completions are kept per disk, and a pick recomputes only its own
  /// disk's.  Throws std::invalid_argument on a bucket without a replica.
  GreedyPass greedy_pass(const RetrievalProblem& problem);

  /// Trim greedy_disk_ to the capacities of time `lower`: each disk keeps
  /// its first slots_within(d, lower) buckets in query order, the rest
  /// become -1.
  void trim_greedy_to(const RetrievalProblem& problem, double lower);

  std::vector<double> candidates_;  // grow-only, reserved to the arc count
  // Grow-only, one per disk: the greedy loads, then the slots left under
  // the lower bound while trimming.
  std::vector<std::int64_t> greedy_load_;
  std::vector<std::int32_t> greedy_disk_;  // grow-only, one per bucket
  // Grow-only, one per disk: completion_time(d, load_d + 1) under the
  // greedy loads so far.
  std::vector<double> next_slot_;
};

}  // namespace repflow::core
