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
// metrics (latency histogram, step/probe counters) are recorded exactly
// once per solve; phase-level spans live inside the individual solvers.
struct SolverMetrics {
  obs::Histogram& solve_ms;
  obs::Counter& solves;
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
        obs::Registry::global().counter("solver." id ".solves"),            \
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

}  // namespace

SolverKind choose_solver(const RetrievalProblem& problem) {
  const std::int64_t q = problem.query_size();
  if (q == 0) return SolverKind::kIntegratedMatching;
  std::int64_t arcs = 0;
  for (const auto& options : problem.replicas) {
    arcs += static_cast<std::int64_t>(options.size());
  }
  // Replica degree is the copy count c after deduplication: 2..5 on every
  // paper workload, so the matching kernel is the default; only artificial
  // nearly-complete instances cross the threshold.
  const double avg_degree =
      static_cast<double>(arcs) / static_cast<double>(q);
  return avg_degree <= kMatchingDegreeThreshold
             ? SolverKind::kIntegratedMatching
             : SolverKind::kPushRelabelBinary;
}

ExecutionContext::ExecutionContext(ExecutionPolicy policy)
    : policy_(policy), pool_(policy.threads) {}

void ExecutionContext::set_policy(const ExecutionPolicy& policy) {
  policy_ = policy;
  pool_.set_threads(policy.threads);  // no-op unless the count changed
}

SolverKind ExecutionContext::select(const RetrievalProblem& problem) {
  obs::PolicyInstruments::global().decisions.add(1);
  const SolverKind kind = policy_.mode == SelectionMode::kPinned
                              ? policy_.pinned_kind
                              : choose_solver(problem);
  // Tag the decision onto the ambient query's flight chain (id 0 = no query
  // in flight, e.g. facade solves outside any serving loop).
  const obs::ActiveQuery active = obs::QueryScope::current();
  if (active.id != 0) {
    obs::FlightRecorder::global().record(active.id,
                                         obs::FlightEventKind::kPolicy, 0.0,
                                         static_cast<std::int32_t>(kind));
  }
  return kind;
}

void ExecutionContext::solve_into(const RetrievalProblem& problem,
                                  SolveResult& result) {
  solve_into(problem, select(problem), result);
}

void ExecutionContext::solve_into(const RetrievalProblem& problem,
                                  SolverKind kind, SolveResult& result) {
  // Every entry point lands here, so this is the one place a malformed
  // problem (non-finite or non-positive cost, disk id out of range) is
  // turned into std::invalid_argument before any pooled state is touched.
  problem.validate();
  SolverMetrics& metrics = metrics_for(kind);
  obs::ScopedSpan span(metrics.span_name);
  // Manual stopwatch instead of ScopedLatency: the wall time also feeds the
  // flight recorder's kSolve event below.
  StopWatch watch;
  watch.start();
  pool_.solve_into(problem, kind, result);
  watch.stop();
  const double solve_wall_ms = watch.elapsed_ms();
  metrics.solve_ms.observe(solve_wall_ms);
  metrics.solves.add(1);
  metrics.capacity_steps.add(
      static_cast<std::uint64_t>(result.capacity_steps));
  metrics.binary_probes.add(static_cast<std::uint64_t>(result.binary_probes));
  metrics.maxflow_runs.add(static_cast<std::uint64_t>(result.maxflow_runs));

  const obs::ActiveQuery active = obs::QueryScope::current();
  if (active.id != 0) {
    obs::FlightRecorder::global().record(active.id,
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
}

const SolveResult& ExecutionContext::solve_scratch(
    const RetrievalProblem& problem) {
  solve_into(problem, scratch_);
  return scratch_;
}

SolveResult ExecutionContext::solve(const RetrievalProblem& problem) {
  SolveResult result;
  solve_into(problem, result);
  return result;
}

IncrementalQuerySession ExecutionContext::open_session(
    workload::SystemConfig system) {
  static obs::Counter& sessions =
      obs::Registry::global().counter("session.opened");
  sessions.add(1);
  // Guaranteed copy elision: the session is constructed in the caller's
  // storage, so its internal engine-to-network references stay valid.
  return IncrementalQuerySession(std::move(system));
}

}  // namespace repflow::core
