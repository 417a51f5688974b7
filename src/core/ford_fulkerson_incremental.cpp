#include "core/ford_fulkerson_incremental.h"

#include "analysis/schedule_invariants.h"

#include "obs/span.h"

namespace repflow::core {

void FordFulkersonIncrementalSolver::solve_into(
    const RetrievalProblem& problem, SolveResult& result) {
  result.clear();
  network_.rebuild(problem);
  engine_.rebind(network_.source(), network_.sink());
  auto& net = network_.net();
  const std::int64_t q = problem.query_size();

  // Lines 1-2: capacities start at zero.
  network_.set_uniform_capacities(0);
  incrementer_.rebind(network_);

  for (std::int64_t b = 0; b < q; ++b) {
    net.set_pair_flow(network_.source_arc(b), 1);
  }

  const graph::FlowStats stats_before = engine_.stats();
  for (std::int64_t b = 0; b < q; ++b) {
    // Lines 3-7: augment this bucket, admitting the cheapest next
    // completion slot whenever the residual graph has no path.
    obs::ScopedSpan span("alg2.augment");
    while (engine_.augment_once(network_.bucket_vertex(b)) == 0) {
      obs::ScopedSpan step("alg2.capacity_step");
      incrementer_.increment_min_cost();
    }
  }

  result.capacity_steps = incrementer_.steps();
  result.flow_stats = engine_.stats() - stats_before;
  extract_schedule_into(network_, result.schedule);
  result.response_time_ms = result.schedule.response_time(problem.system);
  REPFLOW_CHECK_SOLVE(problem, network_, result, "alg2_ff_incremental.post_solve");
}

std::size_t FordFulkersonIncrementalSolver::retained_bytes() const {
  return network_.retained_bytes() + engine_.retained_bytes();
}

}  // namespace repflow::core
