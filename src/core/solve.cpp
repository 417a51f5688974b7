#include "core/solve.h"

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
  ExecutionContext& context = thread_execution_context();
  context.pool().set_threads(threads);
  SolveResult result;
  context.solve_into(problem, kind, result);
  return result;
}

}  // namespace repflow::core
