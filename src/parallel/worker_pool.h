// Persistent worker pool of the parallel max-flow engine and of
// core::BatchSolver.
//
// A spawn-once / run-many protocol: `threads` OS threads are created at
// construction and parked on a condition variable; run(job) publishes the
// job, wakes every worker, and blocks the caller until all of them
// finished.  Algorithm 6 resumes an engine many
// times per query, so the threads must survive across runs — thread
// creation per resume() would dominate small-query latency.
//
// Synchronization contract: the mutex + condition-variable handoff around
// each run() provides the happens-before edges into and out of a parallel
// phase.  Everything a worker wrote before finishing is visible to the
// caller when run() returns, and everything the caller wrote before run()
// is visible to every worker — the engine exploits this to keep its
// single-threaded prologue/epilogue free of per-cell synchronization.
//
// Lock discipline (compile-time checked; see support/thread_annotations.h
// and docs/ANALYSIS.md): mutex_ guards the whole handoff state — job_,
// generation_, running_, shutdown_.  Clang's -Wthread-safety rejects any
// access outside a MutexLock scope.
//
// threads == 1 never spawns: run(job) invokes job(0) inline on the caller,
// so single-threaded engines stay deterministic and signal-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.h"

namespace repflow::parallel {

class WorkerPool {
 public:
  explicit WorkerPool(int threads) : threads_(threads) {
    if (threads_ > 1) {
      workers_.reserve(static_cast<std::size_t>(threads_));
      for (int t = 0; t < threads_; ++t) {
        workers_.emplace_back([this, t] { entry(t); });
      }
    }
  }

  ~WorkerPool() {
    {
      support::MutexLock lock(mutex_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Run `job(worker_index)` on every worker (indices 0..threads-1) and
  /// block until all of them return.  Not reentrant; one run at a time.
  void run(const std::function<void(int)>& job) REPFLOW_EXCLUDES(mutex_) {
    if (threads_ == 1) {
      job(0);
      return;
    }
    {
      support::MutexLock lock(mutex_);
      job_ = &job;
      running_ = threads_;
      ++generation_;
    }
    cv_.notify_all();
    {
      support::MutexLock lock(mutex_);
      while (running_ != 0) cv_.wait(mutex_);
      job_ = nullptr;
    }
  }

  int threads() const { return threads_; }

 private:
  void entry(int index) REPFLOW_EXCLUDES(mutex_) {
    std::uint64_t seen_generation = 0;
    for (;;) {
      const std::function<void(int)>* job = nullptr;
      {
        support::MutexLock lock(mutex_);
        while (!shutdown_ && generation_ == seen_generation) cv_.wait(mutex_);
        if (shutdown_) return;
        seen_generation = generation_;
        job = job_;
      }
      (*job)(index);
      {
        support::MutexLock lock(mutex_);
        if (--running_ == 0) cv_.notify_all();
      }
    }
  }

  int threads_;
  std::vector<std::thread> workers_;
  support::Mutex mutex_;
  support::CondVar cv_;
  const std::function<void(int)>* job_ REPFLOW_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ REPFLOW_GUARDED_BY(mutex_) = 0;
  int running_ REPFLOW_GUARDED_BY(mutex_) = 0;
  bool shutdown_ REPFLOW_GUARDED_BY(mutex_) = false;
};

}  // namespace repflow::parallel
