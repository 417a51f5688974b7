// The serving spine: one policy object + one context through which every
// public entry point (the solve() facade, QueryStreamScheduler, BatchSolver)
// reaches the solver catalog.
//
// ExecutionPolicy is the one value type for the solver kind and thread
// count, and ExecutionContext owns the machinery every caller needs anyway:
// the warm SolverPool, a reusable scratch SolveResult, and the policy.
// Serving-loop features (admission control in QueryRouter, per-kind
// metrics) are implemented once, here, instead of once per entry point.
#pragma once

#include "core/problem.h"
#include "core/solver.h"
#include "core/solver_pool.h"

namespace repflow::core {

/// Solver kind + thread count for one serving context.  A plain value
/// type: copy it, tweak a field, hand it to ExecutionContext /
/// QueryStreamScheduler / BatchOptions.  `ExecutionPolicy{}` serves every
/// problem with the Hopcroft-Karp matching kernel: every retrieval network
/// is a bipartite b-matching, and on every shape measured the kernel beats
/// the integrated push-relabel driver (docs/ALGORITHMS.md).  pinned() picks
/// another catalog kind.
struct ExecutionPolicy {
  SolverKind kind = SolverKind::kIntegratedMatching;
  /// Worker count for kParallelPushRelabelBinary (ignored by the
  /// sequential kinds; must be >= 1).
  int threads = 2;

  static ExecutionPolicy pinned(SolverKind kind, int threads = 2) {
    return ExecutionPolicy{kind, threads};
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

  /// The policy's kind, whatever the problem: the kind solve_into(problem,
  /// result) runs, for callers that tally it (the serving benchmark).
  SolverKind select(const RetrievalProblem& /*problem*/) const {
    return policy_.kind;
  }

  /// Pooled solve with the policy's kind, recording the per-kind run
  /// metrics.  Returns the solve's wall time in ms, the value recorded in
  /// `solver.<id>.solve_ms`.
  double solve_into(const RetrievalProblem& problem, SolveResult& result) {
    return solve_into(problem, policy_.kind, result);
  }

  /// Pooled solve with an explicit kind (still funnelled through the
  /// per-kind metrics); returns its wall time in ms.  Throws
  /// std::invalid_argument when `problem.validate()` does, before any
  /// pooled state is touched.
  double solve_into(const RetrievalProblem& problem, SolverKind kind,
                    SolveResult& result);

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
