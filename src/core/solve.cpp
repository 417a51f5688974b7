#include "core/solve.h"

namespace repflow::core {

ExecutionContext& thread_execution_context() {
  // One context per thread: solver shells (networks, engines, workspaces)
  // persist across facade calls, so steady-state solves reuse every
  // working buffer instead of reallocating per query.
  thread_local ExecutionContext context;
  return context;
}

SolverKind choose_solver(const RetrievalProblem& problem) {
  return select_by_degree(problem, 16.0);
}

SolveResult solve(const RetrievalProblem& problem, SolverKind kind,
                  int threads, EngineKind engine) {
  ExecutionContext& context = thread_execution_context();
  context.pool().set_threads(threads);
  context.pool().set_engine_kind(engine);
  SolveResult result;
  context.solve_into(problem, kind, result);
  return result;
}

SolveResult solve(const RetrievalProblem& problem,
                  const ExecutionPolicy& policy) {
  ExecutionContext& context = thread_execution_context();
  context.set_policy(policy);
  SolveResult result;
  context.solve_into(problem, result);
  return result;
}

}  // namespace repflow::core
