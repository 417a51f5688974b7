#include "core/batch.h"

#include <stdexcept>

namespace repflow::core {

namespace {

// Checked before any member is built, so bad counts spawn no thread.
BatchOptions validated(BatchOptions options) {
  if (options.threads < 1 || options.policy.threads < 1) {
    throw std::invalid_argument("BatchSolver: bad thread counts");
  }
  return options;
}

}  // namespace

BatchSolver::BatchSolver(BatchOptions options)
    : options_(validated(options)), pool_(options_.threads) {
  contexts_.reserve(static_cast<std::size_t>(options_.threads));
  for (int t = 0; t < options_.threads; ++t) {
    contexts_.push_back(std::make_unique<ExecutionContext>(options_.policy));
  }
}

void BatchSolver::drain(int index) {
  ExecutionContext& context = *contexts_[static_cast<std::size_t>(index)];
  for (;;) {
    // Fast abort: once any worker recorded an error, stop claiming work so
    // the batch call returns instead of grinding through the tail.
    // mo: acquire — pairs with the release store below so the aborting
    // worker's first_error_ write (under error_mutex_) is visible.
    if (abort_.load(std::memory_order_acquire)) return;
    // mo: relaxed — the cursor is a bare ticket; the claimed problem slot
    // was published by the WorkerPool handoff, not by this RMW.
    const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= problems_->size()) return;
    try {
      context.solve_into((*problems_)[i], (*results_)[i]);
    } catch (...) {
      {
        support::MutexLock lock(error_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      // mo: release — publishes the error slot to peers' acquire loads.
      abort_.store(true, std::memory_order_release);
      return;
    }
  }
}

void BatchSolver::solve_into(const std::vector<RetrievalProblem>& problems,
                             std::vector<SolveResult>& results) {
  results.resize(problems.size());
  problems_ = &problems;
  results_ = &results;
  // mo: relaxed — re-arming between batches; the WorkerPool handoff below
  // publishes these stores to the workers.
  cursor_.store(0, std::memory_order_relaxed);
  abort_.store(false, std::memory_order_relaxed);
  {
    // Thread-safety analysis found this re-arm running without
    // error_mutex_; the previous batch's workers have quiesced (the pool
    // handoff), but the guarded discipline is now explicit instead of
    // relying on that reasoning at a distance.
    support::MutexLock lock(error_mutex_);
    first_error_ = nullptr;
  }

  if (problems.size() <= 1) {
    drain(0);
  } else {
    pool_.run([this](int index) { drain(index); });
  }

  problems_ = nullptr;
  results_ = nullptr;
  std::exception_ptr error;
  {
    support::MutexLock lock(error_mutex_);
    error = first_error_;
  }
  if (error) std::rethrow_exception(error);
}

std::vector<SolveResult> solve_batch(
    const std::vector<RetrievalProblem>& problems,
    const BatchOptions& options) {
  BatchSolver batch(options);
  std::vector<SolveResult> results;
  batch.solve_into(problems, results);
  return results;
}

}  // namespace repflow::core
