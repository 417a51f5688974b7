#include "core/ford_fulkerson_binary.h"

#include <stdexcept>

#include "analysis/schedule_invariants.h"

namespace repflow::core {

FordFulkersonBinarySolver::FordFulkersonBinarySolver(
    const RetrievalProblem& problem)
    : bound_problem_(&problem) {}

SolveResult FordFulkersonBinarySolver::solve() {
  if (bound_problem_ == nullptr) {
    throw std::logic_error(
        "FordFulkersonBinarySolver::solve: no bound problem; use solve_into");
  }
  SolveResult result;
  solve_into(*bound_problem_, result);
  return result;
}

void FordFulkersonBinarySolver::solve_into(const RetrievalProblem& problem,
                                           SolveResult& result) {
  result.clear();
  network_.rebuild(problem);
  if (!engine_) {
    engine_.emplace(network_.net(), network_.source(), network_.sink(),
                    graph::SearchOrder::kBfs, &workspace_);
  } else {
    engine_->rebind(network_.source(), network_.sink());
  }
  const graph::FlowStats stats_before = engine_->stats();
  driver_.run(problem, network_.in_degrees(), *this, result,
              "ff_binary.probe");
  result.flow_stats = engine_->stats() - stats_before;
  extract_schedule_into(network_, result.schedule);
  result.response_time_ms = result.schedule.response_time(problem.system);
  REPFLOW_CHECK_SOLVE(problem, network_, result, "ff_binary.post_solve");
}

void FordFulkersonBinarySolver::set_capacities_for_time(double t) {
  network_.set_capacities_for_time(t);
}

std::int64_t FordFulkersonBinarySolver::resume() {
  engine_->run();  // augment from the conserved flow
  return network_.flow_value();
}

void FordFulkersonBinarySolver::save() {
  network_.net().save_flows_into(saved_flows_);
}

void FordFulkersonBinarySolver::restore() {
  network_.net().restore_flows(saved_flows_);
}

std::size_t FordFulkersonBinarySolver::retained_bytes() const {
  return network_.retained_bytes() + workspace_.retained_bytes() +
         saved_flows_.capacity() * sizeof(graph::Cap) +
         driver_.retained_bytes();
}

}  // namespace repflow::core
