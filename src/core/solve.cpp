#include "core/solve.h"

#include <stdexcept>

namespace repflow::core {

namespace {

ExecutionContext& thread_execution_context() {
  // One context per thread: solver shells (networks, engines, workspaces)
  // persist across facade calls, so steady-state solves reuse every
  // working buffer instead of reallocating per query.
  thread_local ExecutionContext context;
  return context;
}

}  // namespace

SolveResult solve(const RetrievalProblem& problem, SolverKind kind,
                  int threads) {
  if (threads < 1) {
    throw std::invalid_argument("solve: threads < 1");
  }
  ExecutionContext& context = thread_execution_context();
  // Only the parallel kind reads the count; setting it for the sequential
  // kinds would drop the pooled parallel engine on every alternation.
  if (kind == SolverKind::kParallelPushRelabelBinary) {
    context.pool().set_threads(threads);
  }
  SolveResult result;
  context.solve_into(problem, kind, result);
  return result;
}

}  // namespace repflow::core
