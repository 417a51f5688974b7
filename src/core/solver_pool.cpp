#include "core/solver_pool.h"

#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace repflow::core {

namespace {

// Reuse telemetry, resolved once per process (registry lookup takes a
// mutex; these writes must stay on the lock-free path).  A pooled solve
// is a rebuild or a reuse, so reuse shows as rebuilds staying flat while
// solver.<id>.solve_ms counts solves.
struct PoolMetrics {
  obs::Counter& rebuilds;
  obs::Gauge& retained_bytes;
};

PoolMetrics& pool_metrics() {
  static PoolMetrics metrics{
      obs::Registry::global().counter("workspace.rebuilds"),
      obs::Registry::global().gauge("workspace.retained_bytes")};
  return metrics;
}

// Slot accessor: construct on first use (a rebuild), reuse afterwards.
template <typename T, typename... Args>
T& slot(std::unique_ptr<T>& shell, Args&&... args) {
  if (!shell) {
    pool_metrics().rebuilds.add(1);
    shell = std::make_unique<T>(std::forward<Args>(args)...);
  }
  return *shell;
}

}  // namespace

SolverPool::SolverPool(int threads) : threads_(threads) {
  if (threads < 1) {
    throw std::invalid_argument("SolverPool: threads < 1");
  }
}

SolverPool::~SolverPool() = default;

void SolverPool::set_threads(int threads) {
  if (threads < 1) {
    throw std::invalid_argument("SolverPool::set_threads: threads < 1");
  }
  if (threads == threads_) return;
  threads_ = threads;
  // Rebuilt with the new worker count on next use.
  parallel_.reset();
}

void SolverPool::solve_into(const RetrievalProblem& problem, SolverKind kind,
                            SolveResult& result) {
  switch (kind) {
    case SolverKind::kFordFulkersonBasic:
      slot(ff_basic_).solve_into(problem, result);
      break;
    case SolverKind::kFordFulkersonIncremental:
      slot(ff_incremental_).solve_into(problem, result);
      break;
    case SolverKind::kPushRelabelIncremental:
      slot(pr_incremental_).solve_into(problem, result);
      break;
    case SolverKind::kPushRelabelBinary:
      slot(pr_binary_).solve_into(problem, result);
      break;
    case SolverKind::kBlackBoxBinary:
      slot(black_box_).solve_into(problem, result);
      break;
    case SolverKind::kParallelPushRelabelBinary:
      slot(parallel_, threads_).solve_into(problem, result);
      break;
    case SolverKind::kIntegratedMatching:
      slot(matching_).solve_into(problem, result);
      break;
  }
  pool_metrics().retained_bytes.set(static_cast<double>(retained_bytes()));
}

std::size_t SolverPool::retained_bytes() const {
  std::size_t total = 0;
  if (ff_basic_) total += ff_basic_->retained_bytes();
  if (ff_incremental_) total += ff_incremental_->retained_bytes();
  if (pr_incremental_) total += pr_incremental_->retained_bytes();
  if (pr_binary_) total += pr_binary_->retained_bytes();
  if (black_box_) total += black_box_->retained_bytes();
  if (parallel_) total += parallel_->retained_bytes();
  if (matching_) total += matching_->retained_bytes();
  return total;
}

}  // namespace repflow::core
