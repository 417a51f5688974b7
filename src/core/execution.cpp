#include "core/execution.h"

#include <algorithm>
#include <stdexcept>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/serving.h"
#include "obs/span.h"
#include "support/timing.h"

namespace repflow::core {

namespace {

// Per-kind observability handles, resolved once per process.  Every solve
// through an ExecutionContext — and therefore every solve issued by any of
// the public entry points — passes through this funnel, so run-level
// metrics (the latency histogram, whose count is the solve count, and the
// step/probe counters) are recorded exactly once per solve; phase-level
// spans live inside the individual solvers.
struct SolverMetrics {
  obs::Histogram& solve_ms;
  obs::Counter& capacity_steps;
  obs::Counter& binary_probes;
  obs::Counter& maxflow_runs;
  const char* span_name;
};

// The cases are generated from REPFLOW_SOLVER_CATALOG, so a SolverKind
// cannot exist without its metrics entry; each kind pastes its id as a
// string literal so the span name keeps static storage duration.
SolverMetrics& metrics_for(SolverKind kind) {
  switch (kind) {
#define REPFLOW_SOLVER_METRICS_CASE(k, id, name)                            \
  case SolverKind::k: {                                                     \
    static SolverMetrics metrics = {                                       \
        obs::Registry::global().histogram("solver." id ".solve_ms"),        \
        obs::Registry::global().counter("solver." id ".capacity_steps"),    \
        obs::Registry::global().counter("solver." id ".binary_probes"),     \
        obs::Registry::global().counter("solver." id ".maxflow_runs"),      \
        "solve." id};                                                       \
    return metrics;                                                         \
  }
    REPFLOW_SOLVER_CATALOG(REPFLOW_SOLVER_METRICS_CASE)
#undef REPFLOW_SOLVER_METRICS_CASE
  }
  throw std::invalid_argument("metrics_for: unknown solver kind");
}

// Engine work summed over every catalog solve (`graph.*`), resolved once
// per process like the per-kind handles above.
struct FlowMetrics {
  obs::Counter& augmentations;
  obs::Counter& pushes;
  obs::Counter& relabels;
  obs::Counter& global_relabels;
  obs::Counter& gap_jumps;
  obs::Counter& dfs_visits;
};

// Most fields of a solve's counts are zero for any one kind (Alg 6 takes
// no capacity steps, only the black box runs from zero), so each counter
// is touched only when its value moves.
void fold(obs::Counter& counter, std::uint64_t value) {
  if (value != 0) counter.add(value);
}

void fold_flow_stats(const graph::FlowStats& stats) {
  static FlowMetrics metrics = {
      obs::Registry::global().counter("graph.augmentations"),
      obs::Registry::global().counter("graph.pushes"),
      obs::Registry::global().counter("graph.relabels"),
      obs::Registry::global().counter("graph.global_relabels"),
      obs::Registry::global().counter("graph.gap_jumps"),
      obs::Registry::global().counter("graph.dfs_visits")};
  fold(metrics.augmentations, stats.augmentations);
  fold(metrics.pushes, stats.pushes);
  fold(metrics.relabels, stats.relabels);
  fold(metrics.global_relabels, stats.global_relabels);
  fold(metrics.gap_jumps, stats.gap_jumps);
  fold(metrics.dfs_visits, stats.dfs_visits);
}

}  // namespace

ExecutionContext::ExecutionContext(ExecutionPolicy policy)
    : policy_(policy), pool_(policy.threads) {}

double ExecutionContext::solve_into(const RetrievalProblem& problem,
                                    SolverKind kind, SolveResult& result) {
  // Every entry point lands here, so this is the one place a malformed
  // problem (non-finite or non-positive cost, disk id out of range) is
  // turned into std::invalid_argument before any pooled state is touched.
  problem.validate();
  SolverMetrics& metrics = metrics_for(kind);
  obs::ScopedSpan span(metrics.span_name);
  // Manual stopwatch instead of ScopedLatency: the wall time also feeds the
  // flight recorder's kSolve event below and is returned to the caller.
  StopWatch watch;
  watch.start();
  pool_.solve_into(problem, kind, result);
  watch.stop();
  const double solve_wall_ms = watch.elapsed_ms();
  metrics.solve_ms.observe(solve_wall_ms);
  fold(metrics.capacity_steps,
       static_cast<std::uint64_t>(result.capacity_steps));
  fold(metrics.binary_probes, static_cast<std::uint64_t>(result.binary_probes));
  fold(metrics.maxflow_runs, static_cast<std::uint64_t>(result.maxflow_runs));
  fold_flow_stats(result.flow_stats);

  // Tag the solve onto the ambient query's flight chain (id 0 = no query
  // in flight, e.g. facade solves outside any serving loop).
  const std::uint64_t query_id = obs::QueryScope::current().id;
  if (query_id != 0) {
    obs::FlightRecorder::global().record(query_id,
                                         obs::FlightEventKind::kSolve,
                                         solve_wall_ms,
                                         static_cast<std::int32_t>(kind));
  }

  // Per-disk utilization accounting: fold this schedule's service demand
  // into the `disk.<j>.*` series.  One seam covers every entry point (the
  // facade, stream scheduler, batch workers, and the router's coalesced
  // solves all land here).  Steady state is one acquire load plus two
  // relaxed adds per used disk; X_j backlog is deliberately excluded so
  // busy_ms accumulates *new* service time (D_j + k*C_j), whose windowed
  // rate / 1000 is the disk's utilization.
  obs::DiskInstruments& disks = obs::DiskInstruments::global();
  const std::size_t used =
      std::min(result.schedule.per_disk_count.size(),
               problem.system.delay_ms.size());
  for (std::size_t d = 0; d < used; ++d) {
    const std::int64_t k = result.schedule.per_disk_count[d];
    if (k <= 0) continue;
    obs::DiskInstrument& disk = disks.disk(static_cast<std::int32_t>(d));
    disk.assigned_buckets.add(static_cast<std::uint64_t>(k));
    disk.busy_ms.add(problem.system.delay_ms[d] +
                     static_cast<double>(k) * problem.system.cost_ms[d]);
  }
  return solve_wall_ms;
}

}  // namespace repflow::core
