// Inter-query parallelism: solve a batch of retrieval problems across a
// thread pool, one serving context per worker.
//
// Section V parallelizes *within* one max-flow (intra-query).  Storage
// arrays also face the embarrassingly parallel case of many independent
// queries arriving together; this utility covers that axis and lets the
// benches compare intra- vs inter-query parallelism on the same workload.
#pragma once

#include <atomic>
#include <exception>
#include <memory>
#include <vector>

#include "core/execution.h"
#include "core/problem.h"
#include "core/solver.h"
#include "parallel/worker_pool.h"
#include "support/thread_annotations.h"

namespace repflow::core {

struct BatchOptions {
  /// Threads that drain a batch, counting the calling thread, each with its
  /// own ExecutionContext (>= 1); threads - 1 are pool workers.
  int threads = 2;
  /// Every worker's serving policy.
  ExecutionPolicy policy{};
};

/// Reusable batch executor: worker threads (a parallel::WorkerPool, the
/// same spawn-once pool the Hong & He engine runs on) and their per-worker
/// ExecutionContexts persist across solve_into() calls, so consecutive
/// batches reuse every solver shell instead of reconstructing them per
/// batch.  The calling thread drains too, as worker 0 with the first
/// context.
/// Problems are distributed dynamically (an atomic cursor), so skewed query
/// sizes load-balance.
///
/// Error handling: throws whatever a solver throws (first error wins).  As
/// soon as any worker's solve throws, the remaining workers stop claiming
/// problems, so a poisoned batch cannot strand threads grinding through the
/// tail.  On throw the contents of `results` are unspecified (a mix of
/// solved and untouched slots) and the BatchSolver itself remains fully
/// usable — the cursor and error slot are re-armed by the next solve call.
class BatchSolver {
 public:
  explicit BatchSolver(BatchOptions options = {});

  BatchSolver(const BatchSolver&) = delete;
  BatchSolver& operator=(const BatchSolver&) = delete;

  /// Solve all problems into `results` (resized to match; reusing the same
  /// vector across batches keeps each slot's schedule capacity).  Results
  /// are in input order.
  void solve_into(const std::vector<RetrievalProblem>& problems,
                  std::vector<SolveResult>& results);

  const BatchOptions& options() const { return options_; }

 private:
  /// Drain the shared cursor using worker `index`'s context.
  void drain(int index);

  BatchOptions options_;
  // One serving context per worker (contexts are single-threaded by
  // design); unique_ptr because ExecutionContext is non-copyable.
  std::vector<std::unique_ptr<ExecutionContext>> contexts_;

  // Per-batch shared state (set by solve_into before waking the workers;
  // the WorkerPool handoff publishes it to the workers, so no lock is held
  // while they read it — deliberately unannotated).
  const std::vector<RetrievalProblem>* problems_ = nullptr;
  std::vector<SolveResult>* results_ = nullptr;
  std::atomic<std::size_t> cursor_{0};
  // Raised by the first throwing worker; every drain loop checks it before
  // claiming another problem, so one failure stops the whole batch.
  std::atomic<bool> abort_{false};
  support::Mutex error_mutex_;
  std::exception_ptr first_error_ REPFLOW_GUARDED_BY(error_mutex_);

  // Persistent workers 1..threads-1 (the caller is worker 0; threads == 1
  // runs inline).  Declared last so its threads are joined before any state
  // they touch is destroyed.
  parallel::WorkerPool pool_;
};

/// Solve all problems with a one-shot BatchSolver; results are returned in
/// input order.
std::vector<SolveResult> solve_batch(
    const std::vector<RetrievalProblem>& problems,
    const BatchOptions& options = {});

}  // namespace repflow::core
