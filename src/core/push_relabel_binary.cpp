#include "core/push_relabel_binary.h"

#include <utility>

#include "analysis/schedule_invariants.h"

namespace repflow::core {

EngineFactory sequential_engine_factory(graph::HeightInit init) {
  return [init](graph::FlowNetwork& net, graph::Vertex source,
                graph::Vertex sink) -> std::unique_ptr<IntegratedEngine> {
    return std::make_unique<SequentialPushRelabelEngine>(net, source, sink,
                                                         init);
  };
}

PushRelabelBinarySolver::PushRelabelBinarySolver(EngineFactory factory)
    : factory_(std::move(factory)) {}

void PushRelabelBinarySolver::solve_into(const RetrievalProblem& problem,
                                         SolveResult& result) {
  result.clear();
  network_.rebuild(problem);
  if (!engine_) {
    engine_ = factory_(network_.net(), network_.source(), network_.sink());
  } else {
    engine_->rebind(network_.source(), network_.sink());
  }
  const graph::FlowStats stats_before = engine_->stats();
  driver_.run(problem, network_.in_degrees(), *this, result, "alg6.probe");
  result.flow_stats = engine_->stats() - stats_before;
  extract_schedule_into(network_, result.schedule);
  result.response_time_ms = result.schedule.response_time(problem.system);
  REPFLOW_CHECK_SOLVE(problem, network_, result, "alg6_pr_binary.post_solve");
}

void PushRelabelBinarySolver::set_capacities_for_time(double t) {
  network_.set_capacities_for_time(t);
}

std::int64_t PushRelabelBinarySolver::resume() { return engine_->resume(); }

void PushRelabelBinarySolver::save() {
  network_.net().save_flows_into(saved_flows_);
}

void PushRelabelBinarySolver::restore() {
  network_.net().restore_flows(saved_flows_);
  engine_->reset_excess_after_restore(network_.flow_value());
}

void PushRelabelBinarySolver::seed(
    const std::vector<std::int32_t>& disk_of_bucket) {
  network_.set_assignment_flow(disk_of_bucket);
  engine_->reset_excess_after_restore(network_.flow_value());
}

std::size_t PushRelabelBinarySolver::retained_bytes() const {
  return network_.retained_bytes() +
         saved_flows_.capacity() * sizeof(graph::Cap) +
         driver_.retained_bytes() +
         (engine_ ? engine_->retained_bytes() : 0);
}

}  // namespace repflow::core
