// One-call façade: run any solver of the catalog on a problem instance.
// This is the primary public API entry point (see examples/quickstart.cpp).
// Internally it delegates to a thread_local ExecutionContext
// (docs/SERVING.md), the same spine the stream scheduler and the batch
// solver run on.
#pragma once

#include "core/execution.h"
#include "core/problem.h"
#include "core/solver.h"

namespace repflow::core {

/// Solve `problem` with the chosen algorithm (the serving entry points
/// default to kIntegratedMatching).  `threads` only matters for
/// kParallelPushRelabelBinary, which runs the Hong & He engine (ignored
/// otherwise; must be >= 1).
SolveResult solve(const RetrievalProblem& problem, SolverKind kind,
                  int threads = 2);

}  // namespace repflow::core
