#include "core/black_box.h"

#include "analysis/schedule_invariants.h"

namespace repflow::core {

void BlackBoxBinarySolver::set_capacities_for_time(double t) {
  network_.set_capacities_for_time(t);
}

// Each probe is a full from-zero max-flow — the cost the integrated
// algorithms avoid.
std::int64_t BlackBoxBinarySolver::resume() {
  return engine_.solve_from_zero().value;
}

void BlackBoxBinarySolver::solve_into(const RetrievalProblem& problem,
                                      SolveResult& result) {
  result.clear();
  network_.rebuild(problem);
  engine_.rebind(network_.source(), network_.sink());
  const graph::FlowStats stats_before = engine_.stats();
  driver_.run(problem, network_.in_degrees(), *this, result,
              "blackbox.probe");
  result.flow_stats = engine_.stats() - stats_before;
  // Every probe is one from-zero run.
  result.maxflow_runs = result.binary_probes;
  extract_schedule_into(network_, result.schedule);
  result.response_time_ms = result.schedule.response_time(problem.system);
  REPFLOW_CHECK_SOLVE(problem, network_, result, "blackbox_binary.post_solve");
}

std::size_t BlackBoxBinarySolver::retained_bytes() const {
  return network_.retained_bytes() + engine_.retained_bytes() +
         driver_.retained_bytes();
}

}  // namespace repflow::core
