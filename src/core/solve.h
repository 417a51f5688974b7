// One-call façade: run any solver of the catalog on a problem instance.
// This is the primary public API entry point (see examples/quickstart.cpp).
// Internally every overload delegates to a thread_local ExecutionContext
// (docs/SERVING.md), the same spine the stream scheduler, batch solver, and
// incremental sessions run on.
#pragma once

#include "core/execution.h"
#include "core/problem.h"
#include "core/solver.h"

namespace repflow::core {

/// The adaptive selection policy: every retrieval network is a bipartite
/// b-matching, and the Hopcroft-Karp kernel wins whenever the bucket->disk
/// adjacency is sparse (bounded replica degree — all the paper's workloads,
/// where the copy count c is 2..5).  Dense instances (average replica
/// degree above ~16, i.e. nearly-complete bipartite graphs) fall back to
/// the integrated push-relabel driver, whose per-probe cost does not scale
/// with the arc count the way phase BFS layering does.
/// Equivalent to select_by_degree(problem, 16.0).
SolverKind choose_solver(const RetrievalProblem& problem);

/// Solve `problem` with the chosen algorithm.  `threads` and `engine` only
/// matter for kParallelPushRelabelBinary (ignored otherwise; threads must
/// be >= 1).
SolveResult solve(const RetrievalProblem& problem, SolverKind kind,
                  int threads = 2, EngineKind engine = EngineKind::kRound);

/// Policy form: run under an explicit ExecutionPolicy (pinned or threshold-
/// adaptive) on the calling thread's context.  `solve(p, ExecutionPolicy{})`
/// runs the adaptive policy.
SolveResult solve(const RetrievalProblem& problem,
                  const ExecutionPolicy& policy);

/// The calling thread's serving context (warm solver shells, scratch
/// result).  Exposed so long-running callers can pin a policy once via
/// set_policy() or inspect retained_bytes(); the solve() overloads above
/// all run on this context.
ExecutionContext& thread_execution_context();

}  // namespace repflow::core
