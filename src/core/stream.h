// Continuous query-stream scheduling.
//
// Paper Section II-A: "initial loads of the disks from the previous queries
// can also be calculated easily since it is based on how the previous
// queries are scheduled."  This module closes that loop: a stream scheduler
// that processes queries arriving over (virtual) time, deriving every
// query's X_j initial-load vector from the residual work the earlier
// schedules left on each disk, solving each query optimally with any solver
// from the catalog, and recording per-query latency statistics.
//
// The solver kind and threading are owned by the scheduler's
// ExecutionContext (docs/SERVING.md): construct with ExecutionPolicy{} to
// serve with the matching kernel, or ExecutionPolicy::pinned(kind, threads)
// to pin another kind.  Admission control under overload
// (shedding / coalescing) is layered on top by QueryRouter (core/router.h).
#pragma once

#include <cstdint>
#include <vector>

#include "core/execution.h"
#include "core/problem.h"
#include "core/schedule.h"
#include "core/solver.h"
#include "decluster/allocation.h"
#include "support/stats.h"
#include "workload/disks.h"
#include "workload/query.h"

namespace repflow::core {

/// One processed query of the stream.
struct StreamEvent {
  /// Flight-recorder id this submission's events were tagged with: the
  /// router-assigned id when the submission arrived through a QueryRouter
  /// scope, a scheduler-self-assigned id otherwise (0 in
  /// REPFLOW_OBS_DISABLED builds).  DESIGN.md, "query-id propagation".
  std::uint64_t query_id = 0;
  double arrival_ms = 0.0;        ///< when the query arrived
  double response_ms = 0.0;       ///< optimal response time (incl. waits)
  double completion_ms = 0.0;     ///< arrival + response
  double max_initial_load_ms = 0.0;  ///< busiest disk's backlog at arrival
  double solve_ms = 0.0;  ///< the solve's wall time, as solver.<id>.solve_ms
  std::int64_t buckets = 0;
  Schedule schedule;
};

/// Latency statistics over a scheduler's processed queries, computed from
/// the event log in every build, so the summaries are exact.
struct StreamStats {
  std::int64_t queries = 0;
  double makespan_ms = 0.0;  ///< completion of the last query

  /// Latency decomposition of this scheduler's queries: how long queries
  /// waited on disk backlog (each event's max_initial_load_ms) vs. how
  /// long the solver took vs. the optimal response time delivered.
  Summary queue_wait;
  Summary solve_time;
  Summary response_time;
};

/// Schedules a stream of queries against one replicated allocation,
/// threading the evolving per-disk busy horizon through the X_j parameter
/// of consecutive retrieval problems.
class QueryStreamScheduler {
 public:
  /// `base_system` supplies cost C_j and delay D_j; its init_load entries
  /// are ignored (the scheduler owns the busy horizon).  `policy` names the
  /// solver kind and its threads.
  QueryStreamScheduler(const decluster::ReplicatedAllocation& allocation,
                       workload::SystemConfig base_system,
                       ExecutionPolicy policy);

  /// Trace-replay mode: no allocation — every query must arrive as an
  /// explicit replica list through submit_replicas() (submit(query, ...)
  /// throws std::logic_error in this mode).
  QueryStreamScheduler(workload::SystemConfig base_system,
                       ExecutionPolicy policy);

  /// Process one query arriving at `arrival_ms` (must be finite and
  /// non-decreasing across served calls; throws std::invalid_argument
  /// otherwise).  Returns the event record.  A query the solve seam rejects,
  /// or whose completion time `arrival_ms + T` is not finite, throws
  /// std::invalid_argument and leaves the scheduler as it was, its clock
  /// and busy horizon included.
  StreamEvent submit(const workload::Query& query, double arrival_ms);

  /// Same, but with the bucket replica lists given directly (e.g. from a
  /// Trace).  Works in both modes.
  StreamEvent submit_replicas(std::vector<std::vector<DiskId>> replicas,
                              double arrival_ms);

  std::int32_t total_disks() const { return problem_.total_disks(); }

  /// Busy horizon of a disk: the absolute time at which it finishes all
  /// work scheduled so far.
  double disk_free_at(DiskId disk) const { return busy_until_[disk]; }

  /// The maximum outstanding X_j horizon a query arriving at `arrival_ms`
  /// would observe: max over disks of (busy-until - arrival), clamped at
  /// zero.  QueryRouter's admission decisions key off this value.
  double max_backlog_at(double arrival_ms) const;

  /// Null in trace-replay mode.
  const decluster::ReplicatedAllocation* allocation() const {
    return allocation_;
  }

  /// Events processed so far, in submission order.
  const std::vector<StreamEvent>& events() const { return events_; }

  StreamStats stats() const;

 private:
  /// Fill problem_.replicas with `query`'s replica lists in place
  /// (fill_replica_lists).  Throws std::invalid_argument on a bucket id
  /// outside the grid.
  void fill_replicas(const workload::Query& query);
  /// Fold the backlog left by earlier schedules into problem_'s X_j loads
  /// for a query arriving at `arrival_ms`; returns the busiest backlog.
  /// Throws when the arrival is not finite or precedes the last served one.
  double advance_loads(double arrival_ms);
  /// Solve problem_ and record the event; throws, before committing
  /// anything, when the completion time is not finite.
  StreamEvent submit_problem(double arrival_ms, double max_backlog);

  const decluster::ReplicatedAllocation* allocation_;  // null in replay mode
  // The pooled per-query problem: the base system with the current X_j
  // loads, and the current query's replica lists.  Reused across queries,
  // so a warm submit() builds no problem.  Lists past the current |Q| wait
  // in spare_lists_, since shrinking the vector would free them.
  RetrievalProblem problem_;
  std::vector<std::vector<DiskId>> spare_lists_;
  // The serving context: pooled solver shells + reused scratch result, so
  // consecutive queries of the stream hit the same retained
  // networks/workspaces and the per-query solve itself performs zero
  // steady-state heap allocations.
  ExecutionContext exec_;
  std::vector<double> busy_until_;  // absolute ms per disk
  std::vector<StreamEvent> events_;
  double last_arrival_ms_ = 0.0;
};

}  // namespace repflow::core
