// Keyed cache of reusable solver shells, one slot per SolverKind.
//
// The first solve of a kind constructs its shell (counted as a
// `workspace.rebuilds`); every later solve reuses the shell's retained
// network, engine, and workspace buffers, so the steady state performs
// zero heap allocations on same-footprint problems.
// The solve() facade, QueryStreamScheduler, and BatchSolver all draw from
// a pool instead of constructing solvers per query.
//
// Not thread-safe: use one pool per thread (the facade keeps a
// thread_local pool; BatchSolver gives each worker its own).
#pragma once

#include <cstddef>
#include <memory>

#include "core/bipartite_matching.h"
#include "core/black_box.h"
#include "core/ford_fulkerson_basic.h"
#include "core/ford_fulkerson_incremental.h"
#include "core/problem.h"
#include "core/push_relabel_binary.h"
#include "core/push_relabel_incremental.h"
#include "core/solver.h"

namespace repflow::core {

class SolverPool {
 public:
  /// `threads` is the worker count for the parallel engine (ignored by
  /// the sequential kinds; must be >= 1).
  explicit SolverPool(int threads = 2);
  ~SolverPool();

  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  /// Solve `problem` with the pooled shell for `kind`.  Steady-state calls
  /// on same-footprint problems perform zero heap allocations when
  /// `result` is also reused (its schedule vectors keep their capacity).
  void solve_into(const RetrievalProblem& problem, SolverKind kind,
                  SolveResult& result);

  /// Worker count for the parallel engine.  Changing it drops only the
  /// parallel slot, which is rebuilt with the new count on next use.
  void set_threads(int threads);
  int threads() const { return threads_; }

  /// Total retained working-memory footprint across live slots (also
  /// published as the `workspace.retained_bytes` gauge after each solve).
  std::size_t retained_bytes() const;

 private:
  int threads_;
  std::unique_ptr<FordFulkersonBasicSolver> ff_basic_;
  std::unique_ptr<FordFulkersonIncrementalSolver> ff_incremental_;
  std::unique_ptr<PushRelabelIncrementalSolver> pr_incremental_;
  std::unique_ptr<PushRelabelBinarySolver> pr_binary_;
  std::unique_ptr<BlackBoxBinarySolver> black_box_;
  std::unique_ptr<ParallelPushRelabelBinarySolver> parallel_;
  std::unique_ptr<IntegratedMatchingSolver> matching_;
};

}  // namespace repflow::core
