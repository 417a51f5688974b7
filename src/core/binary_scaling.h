// Algorithm 6's search, written once for every binary-scaling solver.
//
// The paper bisects a real-valued t until [tmin, tmax) is narrower than the
// fastest disk's block time, then finishes with IncrementMinCost steps.  But
// the optimum T* is always a completion time D_j + X_j + k*C_j with
// k <= min(in-degree_j, |Q|) inside the window [tmin, tmax], so the driver
// searches those candidates by selection instead: each probe is the
// nth_element median of the live range; a feasible probe keeps only smaller
// candidates, an infeasible one only larger.  Every probe discards its
// median, so a solve takes at most ceil(log2 #candidates) + 1 resumes, with
// no IncrementMinCost tail and O(#candidates) candidate work.
//
// Flow conservation is the paper's: capacities are monotone in t, so an
// infeasible probe's flow stays valid for every larger t.  Infeasible probes
// snapshot their flow; a feasible probe restores the last snapshot before
// the search moves below it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/problem.h"
#include "core/solver.h"

namespace repflow::core {

/// The response-time window of Algorithm 6 lines 1-11, closed on both
/// ends.  tmax serves the whole query from the costliest disk, so T* <=
/// tmax; some disk serves at least ceil(|Q|/N) buckets, so T* >= tmin, the
/// perfect |Q|/N spread onto the cheapest disk.  T* can equal tmin (a basic
/// problem with N dividing |Q|), which is why the window is closed.
struct TimeBounds {
  double tmin = 0.0;
  double tmax = 0.0;
};

TimeBounds compute_time_bounds(const RetrievalProblem& problem);

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

 protected:
  ~ScalingKernel() = default;
};

class BinaryScalingDriver {
 public:
  /// Find the optimal response time of `problem`, whose disk in-degrees
  /// are `in_degree`, and leave `kernel` holding a flow of value |Q| under
  /// that time's capacities.  The kernel must start from zero flow.  Each
  /// resume counts one result.binary_probes and runs under the span
  /// `probe_span` (a string literal).  Throws std::logic_error if the
  /// kernel reports the optimum infeasible.
  void run(const RetrievalProblem& problem,
           std::span<const std::int32_t> in_degree, ScalingKernel& kernel,
           SolveResult& result, const char* probe_span);

  /// Retained footprint of the candidate buffer.
  std::size_t retained_bytes() const {
    return candidates_.capacity() * sizeof(double);
  }

 private:
  std::vector<double> candidates_;  // grow-only, reserved to the arc count
};

}  // namespace repflow::core
