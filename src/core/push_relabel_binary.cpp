#include "core/push_relabel_binary.h"

#include "analysis/schedule_invariants.h"

namespace repflow::core {

template <typename Engine>
void IntegratedPushRelabelSolver<Engine>::solve_into(
    const RetrievalProblem& problem, SolveResult& result) {
  result.clear();
  network_.rebuild(problem);
  engine_.rebind(network_.source(), network_.sink());
  const graph::FlowStats stats_before = engine_.stats();
  driver_.run(problem, network_.in_degrees(), *this, result, "alg6.probe");
  result.flow_stats = engine_.stats() - stats_before;
  extract_schedule_into(network_, result.schedule);
  result.response_time_ms = result.schedule.response_time(problem.system);
  REPFLOW_CHECK_SOLVE(problem, network_, result, "alg6_pr_binary.post_solve");
}

template <typename Engine>
void IntegratedPushRelabelSolver<Engine>::set_capacities_for_time(double t) {
  network_.set_capacities_for_time(t);
}

template <typename Engine>
std::int64_t IntegratedPushRelabelSolver<Engine>::resume() {
  return engine_.resume();
}

template <typename Engine>
void IntegratedPushRelabelSolver<Engine>::save() {
  network_.net().save_flows_into(saved_flows_);
}

template <typename Engine>
void IntegratedPushRelabelSolver<Engine>::restore() {
  network_.net().restore_flows(saved_flows_);
  engine_.reset_excess_after_restore(network_.flow_value());
}

template <typename Engine>
void IntegratedPushRelabelSolver<Engine>::seed(
    const std::vector<std::int32_t>& disk_of_bucket) {
  network_.set_assignment_flow(disk_of_bucket);
  engine_.reset_excess_after_restore(network_.flow_value());
}

template <typename Engine>
std::size_t IntegratedPushRelabelSolver<Engine>::retained_bytes() const {
  return network_.retained_bytes() +
         saved_flows_.capacity() * sizeof(graph::Cap) +
         driver_.retained_bytes() + engine_.retained_bytes();
}

template class IntegratedPushRelabelSolver<graph::PushRelabel>;
template class IntegratedPushRelabelSolver<parallel::ParallelPushRelabel>;

}  // namespace repflow::core
