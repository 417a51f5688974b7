// Incremental query sessions: the paper's integrated (flow-conserving)
// philosophy extended across *query updates*.
//
// The paper conserves flow across capacity changes within one query.  In
// interactive exploration (the GIS / visualization applications of §I), a
// query frequently *grows* — the user pans or widens a range — and the
// previous schedule is a valid partial flow for the extended query.  This
// session keeps the flow network, flows, and admitted capacities alive
// across add_buckets() calls, so each reoptimize() only routes the new
// buckets and admits whatever extra capacity the larger query needs
// (Algorithm 5's loop), instead of re-solving from zero.
//
// Capacity admission is monotone, which is exactly why conservation stays
// valid: adding buckets can only raise the optimal response time.
// Shrinking a query breaks monotonicity, so remove-style edits are served
// by reset() + re-add (documented non-incremental direction).
#pragma once

#include <cstdint>
#include <vector>

#include "core/increment.h"
#include "core/schedule.h"
#include "core/solver.h"
#include "graph/flow_network.h"
#include "graph/push_relabel.h"
#include "workload/disks.h"

namespace repflow::core {

class IncrementalQuerySession {
 public:
  explicit IncrementalQuerySession(workload::SystemConfig system);

  // The engine is bound to this session's network: a copy or a move would
  // drive the original's.
  IncrementalQuerySession(const IncrementalQuerySession&) = delete;
  IncrementalQuerySession& operator=(const IncrementalQuerySession&) = delete;

  /// Append one bucket with its replica disks; cheap (no solving).
  /// Returns the bucket's session index.
  std::int64_t add_bucket(const std::vector<DiskId>& replicas);

  /// Route all pending buckets, admitting capacity as needed; returns the
  /// optimal response time of the *current* bucket set.  Incremental: flows
  /// and capacities from earlier calls are conserved.
  double reoptimize();

  /// Schedule of the last reoptimize(); throws if buckets were added since.
  Schedule schedule() const;

  std::int64_t num_buckets() const {
    return static_cast<std::int64_t>(replicas_.size());
  }
  std::int64_t capacity_steps() const { return capacity_steps_; }

  /// Drop all buckets and flows (capacities reset to zero); the system
  /// configuration is retained.  Rebuilds in place: the network and the
  /// engine keep their buffers, so reset() + re-add allocates nothing on
  /// same-footprint sessions.
  void reset();

  /// Schedule of the last reoptimize() written into `out` (capacity-
  /// reusing); throws if buckets were added since.
  void schedule_into(Schedule& out) const;

  /// Retained working-memory footprint (network + engine buffers).
  std::size_t retained_bytes() const;

 private:
  workload::SystemConfig system_;
  graph::FlowNetwork net_;
  graph::PushRelabel engine_{net_};  // bound to net_, so declared after it
  graph::Vertex source_ = 0;
  graph::Vertex sink_ = 1;
  std::vector<graph::ArcId> sink_arcs_;       // per disk
  std::vector<std::int32_t> in_degree_;       // per disk
  CapacityIncrementer incrementer_;
  std::vector<std::vector<DiskId>> replicas_; // per bucket
  std::vector<graph::Vertex> bucket_vertex_;  // per bucket
  bool clean_ = true;  // no buckets added since last reoptimize
  std::int64_t capacity_steps_ = 0;
  std::int64_t usable_ = 0;  // sum_d min(cap_d, in_degree_d) = sum_d cap_d
};

}  // namespace repflow::core
