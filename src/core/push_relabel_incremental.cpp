#include "core/push_relabel_incremental.h"

#include "analysis/schedule_invariants.h"

#include "obs/span.h"

namespace repflow::core {

void PushRelabelIncrementalSolver::solve_into(const RetrievalProblem& problem,
                                              SolveResult& result) {
  result.clear();
  network_.rebuild(problem);
  engine_.rebind(network_.source(), network_.sink());
  const std::int64_t q = problem.query_size();

  network_.set_uniform_capacities(0);
  incrementer_.rebind(network_);
  const graph::FlowStats stats_before = engine_.stats();

  // Algorithm 5: admit the cheapest next slot, resume from conserved flows,
  // repeat until the sink's excess reaches |Q|.
  graph::Cap reached = 0;
  while (reached != q) {
    obs::ScopedSpan step("alg5.capacity_step");
    incrementer_.increment_min_cost();
    reached = engine_.resume();
  }

  result.capacity_steps = incrementer_.steps();
  result.flow_stats = engine_.stats() - stats_before;
  extract_schedule_into(network_, result.schedule);
  result.response_time_ms = result.schedule.response_time(problem.system);
  REPFLOW_CHECK_SOLVE(problem, network_, result, "alg5_pr_incremental.post_solve");
}

std::size_t PushRelabelIncrementalSolver::retained_bytes() const {
  return network_.retained_bytes() + engine_.retained_bytes();
}

}  // namespace repflow::core
