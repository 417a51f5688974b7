// Persistent worker pool of the parallel max-flow engine and of
// core::BatchSolver.
//
// A spawn-once / run-many protocol: the constructor starts threads - 1 OS
// threads; run(job) runs job(0) on the calling thread and job(1) ..
// job(threads - 1) on the workers, and returns once all of them finished.
// Algorithm 6 resumes an engine many times per query and a batch follows a
// batch, so the threads must survive across runs — thread creation per
// resume() would dominate small-query latency.
//
// Synchronization contract: everything the caller wrote before run() is
// visible to every worker, and everything a worker wrote is visible to the
// caller when run() returns — the engine exploits this to keep its
// single-threaded prologue/epilogue free of per-cell synchronization.  Two
// atomics carry it.  run() publishes job_ and then bumps generation_ with
// release; a worker reads the new generation with acquire.  A worker that
// finishes decrements pending_ with acq_rel; the caller's acquire load that
// reads 0 sees every worker's writes, since each decrement extends the
// release sequence of the ones before it.
//
// Waiting spins before it sleeps: an idle worker polls generation_, and the
// caller polls pending_, for kSpinLimit pause instructions before parking on
// a condition variable, so back-to-back runs never touch a futex.  A waker
// changes its atomic and then takes mutex_ before it notifies, so a waiter
// that checked the atomic under mutex_ is either already waiting (and gets
// the notify) or sees the new value.  mutex_ guards no data; the analysis
// (support/thread_annotations.h) only checks that the wait loops hold it.
//
// threads == 1 spawns nothing: run(job) is job(0) on the caller, so
// single-threaded engines stay deterministic and signal-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.h"

namespace repflow::parallel {

class WorkerPool {
 public:
  /// Pause instructions a waiter spins before it parks: about 100 µs on a
  /// 4-core Intel Xeon, longer than the gap between two batches of
  /// batch_burst or two Hong & He phases, far shorter than an idle pool's
  /// wait for the next query.
  static constexpr int kSpinLimit = 4096;

  explicit WorkerPool(int threads) : threads_(threads) {
    for (int t = 1; t < threads_; ++t) {
      workers_.emplace_back([this, t] { entry(t); });
    }
  }

  ~WorkerPool() {
    stopping_ = true;
    // mo: release — publishes stopping_ to the workers' acquire loads.
    generation_.fetch_add(1, std::memory_order_release);
    wake(work_cv_);
    for (auto& worker : workers_) worker.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Run `job(worker_index)` for indices 0..threads-1, index 0 on the
  /// calling thread, and block until all of them return.  If job(0) throws,
  /// the exception propagates once the workers finished.  Not reentrant;
  /// one run at a time.
  void run(const std::function<void(int)>& job) REPFLOW_EXCLUDES(mutex_) {
    if (workers_.empty()) {
      job(0);
      return;
    }
    job_ = &job;
    // mo: relaxed — published with job_ by the release bump below.
    pending_.store(threads_ - 1, std::memory_order_relaxed);
    // mo: release — pairs with the workers' acquire loads in entry().
    generation_.fetch_add(1, std::memory_order_release);
    wake(work_cv_);
    try {
      job(0);
    } catch (...) {
      await_workers();  // they still run the caller's job
      throw;
    }
    await_workers();
  }

 private:
  void entry(int index) REPFLOW_EXCLUDES(mutex_) {
    std::uint64_t seen = 0;
    for (;;) {
      await(
          [&] {
            // mo: acquire — pairs with the release bump in run() and in the
            // destructor: job_, pending_ and stopping_ are visible after it.
            return generation_.load(std::memory_order_acquire) != seen;
          },
          work_cv_);
      ++seen;  // run() waits for every worker, so generations come singly
      if (stopping_) return;
      (*job_)(index);
      // mo: acq_rel — the release half publishes this worker's writes to
      // the caller's acquire load; the acquire half extends the release
      // sequence of the workers that finished before it.
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        wake(done_cv_);
      }
    }
  }

  void await_workers() REPFLOW_EXCLUDES(mutex_) {
    // mo: acquire — reading 0 synchronizes with every worker's decrement.
    await([this] { return pending_.load(std::memory_order_acquire) == 0; },
          done_cv_);
  }

  /// Spin on `ready` for kSpinLimit pauses, then park on `cv` until it
  /// holds.
  template <class Ready>
  void await(Ready ready, support::CondVar& cv) REPFLOW_EXCLUDES(mutex_) {
    for (int spin = 0; spin < kSpinLimit; ++spin) {
      if (ready()) return;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    support::MutexLock lock(mutex_);
    while (!ready()) cv.wait(mutex_);
  }

  /// Wake whoever parks on `cv`; the caller already changed the atomic.
  void wake(support::CondVar& cv) REPFLOW_EXCLUDES(mutex_) {
    { support::MutexLock lock(mutex_); }
    cv.notify_all();
  }

  int threads_;
  std::vector<std::thread> workers_;
  // Written by the caller before the release bump of generation_, read by
  // workers after their acquire load of it.
  const std::function<void(int)>* job_ = nullptr;
  bool stopping_ = false;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> pending_{0};  // workers still running the current job
  support::Mutex mutex_;
  support::CondVar work_cv_;  // idle workers park here
  support::CondVar done_cv_;  // the caller parks here
};

}  // namespace repflow::parallel
