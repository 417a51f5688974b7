// The serving spine: one policy object + one context through which every
// public entry point (the solve() facade, QueryStreamScheduler, BatchSolver,
// IncrementalQuerySession) reaches the solver catalog.
//
// ExecutionPolicy is the one value type for solver-kind, thread-count and
// selection knobs, and ExecutionContext owns the machinery every caller
// needs anyway: the warm SolverPool, a reusable scratch SolveResult, and
// the policy that maps a problem to a catalog kind.  Serving-loop features
// (admission control in QueryRouter, solver selection) are implemented
// once, here, instead of once per entry point.
#pragma once

#include "core/incremental_session.h"
#include "core/problem.h"
#include "core/solver.h"
#include "core/solver_pool.h"

namespace repflow::core {

/// How an ExecutionPolicy maps a problem to a solver kind.
enum class SelectionMode {
  kPinned,          ///< always `pinned_kind`
  kFixedThreshold,  ///< choose_solver(): the degree rule below
};

/// choose_solver()'s cutover: instances whose average replica degree is at
/// most this run the Hopcroft-Karp matching kernel, denser ones the
/// integrated push-relabel driver.
inline constexpr double kMatchingDegreeThreshold = 16.0;

/// The one selection rule, shared by the facade and every serving context:
/// every retrieval network is a bipartite b-matching, and the Hopcroft-Karp
/// kernel wins whenever the bucket->disk adjacency is sparse (bounded
/// replica degree — all the paper's workloads, where the copy count c is
/// 2..5).  Dense instances (average replica degree above
/// kMatchingDegreeThreshold, i.e. nearly-complete bipartite graphs) fall
/// back to the integrated push-relabel driver, whose per-probe cost does
/// not scale with the arc count the way phase BFS layering does.
SolverKind choose_solver(const RetrievalProblem& problem);

/// Solver selection + execution knobs for one serving context.  A plain
/// value type: copy it, tweak a field, hand it to ExecutionContext /
/// QueryStreamScheduler / BatchOptions.  `ExecutionPolicy{}` is the
/// adaptive policy (choose_solver() on every problem).
struct ExecutionPolicy {
  SelectionMode mode = SelectionMode::kFixedThreshold;
  /// The kind used by kPinned mode (ignored otherwise).
  SolverKind pinned_kind = SolverKind::kPushRelabelBinary;
  /// Worker count for kParallelPushRelabelBinary (ignored by the
  /// sequential kinds; must be >= 1).
  int threads = 2;

  static ExecutionPolicy pinned(SolverKind kind, int threads = 2) {
    ExecutionPolicy p;
    p.mode = SelectionMode::kPinned;
    p.pinned_kind = kind;
    p.threads = threads;
    return p;
  }
};

/// One serving context: policy + warm solver shells + scratch result.
/// Steady-state solves through a context perform zero heap allocations on
/// same-footprint problems (the pool and scratch buffers are retained), and
/// every solve is funnelled through the per-kind `solver.<id>.*` metrics and
/// `solve.<id>` spans regardless of which entry point issued it.
///
/// Not thread-safe: one context per thread (the facade keeps a thread_local
/// one; BatchSolver gives each worker its own).
class ExecutionContext {
 public:
  explicit ExecutionContext(ExecutionPolicy policy = {});

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Apply the policy to one problem.  Records `policy.*` metrics.
  SolverKind select(const RetrievalProblem& problem);

  /// select() + pooled solve, recording the per-kind run metrics.
  void solve_into(const RetrievalProblem& problem, SolveResult& result);

  /// Pooled solve with an explicit kind (bypasses selection, still
  /// funnelled through the per-kind metrics).  Throws std::invalid_argument
  /// when `problem.validate()` does, before any pooled state is touched.
  void solve_into(const RetrievalProblem& problem, SolverKind kind,
                  SolveResult& result);

  /// solve_into() the context's reusable scratch buffer; the reference is
  /// valid until the next solve through this context.
  const SolveResult& solve_scratch(const RetrievalProblem& problem);

  /// Convenience wrapper returning a fresh result.
  SolveResult solve(const RetrievalProblem& problem);

  /// Open an incremental query session on this context's serving spine (the
  /// session records its reoptimize latency into the unified `session.*`
  /// instruments; see IncrementalQuerySession for the growth semantics).
  IncrementalQuerySession open_session(workload::SystemConfig system);

  const ExecutionPolicy& policy() const { return policy_; }
  /// Swap the policy; the pool's parallel slot is rebuilt only when the
  /// thread count actually changed.
  void set_policy(const ExecutionPolicy& policy);

  SolverPool& pool() { return pool_; }
  /// The context's reusable result buffer (capacity survives across
  /// solves, so callers looping over queries stay allocation-free).
  SolveResult& scratch() { return scratch_; }
  std::size_t retained_bytes() const { return pool_.retained_bytes(); }

 private:
  ExecutionPolicy policy_;
  SolverPool pool_;
  SolveResult scratch_;
};

}  // namespace repflow::core
