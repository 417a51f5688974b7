#include "core/black_box.h"

#include <stdexcept>

#include "analysis/schedule_invariants.h"
#include "obs/span.h"

namespace repflow::core {

BlackBoxBinarySolver::BlackBoxBinarySolver(const RetrievalProblem& problem,
                                           BlackBoxEngine engine,
                                           graph::PushRelabelOptions pr_options)
    : bound_problem_(&problem), engine_(engine), pr_options_(pr_options) {}

void BlackBoxBinarySolver::set_capacities_for_time(double t) {
  network_.set_capacities_for_time(t);
}

std::int64_t BlackBoxBinarySolver::resume() {
  // Each probe is a full from-zero max-flow — the cost the integrated
  // algorithms avoid; the span makes that visible in the timeline.
  obs::ScopedSpan span("blackbox.maxflow_run");
  SolveResult& result = *result_;
  ++result.maxflow_runs;
  switch (engine_) {
    case BlackBoxEngine::kPushRelabel: {
      auto r = pr_->solve_from_zero();
      result.flow_stats += r.stats;
      return r.value;
    }
    case BlackBoxEngine::kFordFulkerson: {
      auto r = ff_->solve_from_zero();
      result.flow_stats += r.stats;
      return r.value;
    }
    case BlackBoxEngine::kDinic: {
      auto r = dinic_->solve_from_zero();
      result.flow_stats += r.stats;
      return r.value;
    }
  }
  return 0;
}

SolveResult BlackBoxBinarySolver::solve() {
  if (bound_problem_ == nullptr) {
    throw std::logic_error(
        "BlackBoxBinarySolver::solve: no bound problem; use solve_into");
  }
  SolveResult result;
  solve_into(*bound_problem_, result);
  return result;
}

void BlackBoxBinarySolver::solve_into(const RetrievalProblem& problem,
                                      SolveResult& result) {
  result.clear();
  network_.rebuild(problem);
  auto& net = network_.net();
  const graph::Vertex s = network_.source();
  const graph::Vertex t = network_.sink();
  switch (engine_) {
    case BlackBoxEngine::kPushRelabel:
      if (!pr_) pr_.emplace(net, s, t, pr_options_, &workspace_);
      else pr_->rebind(s, t);
      break;
    case BlackBoxEngine::kFordFulkerson:
      if (!ff_) ff_.emplace(net, s, t, graph::SearchOrder::kBfs, &workspace_);
      else ff_->rebind(s, t);
      break;
    case BlackBoxEngine::kDinic:
      if (!dinic_) dinic_.emplace(net, s, t, &workspace_);
      else dinic_->rebind(s, t);
      break;
  }

  result_ = &result;
  driver_.run(problem, network_.in_degrees(), *this, result,
              "blackbox.probe");
  result_ = nullptr;
  extract_schedule_into(network_, result.schedule);
  result.response_time_ms = result.schedule.response_time(problem.system);
  REPFLOW_CHECK_SOLVE(problem, network_, result, "blackbox_binary.post_solve");
}

std::size_t BlackBoxBinarySolver::retained_bytes() const {
  return network_.retained_bytes() + workspace_.retained_bytes() +
         driver_.retained_bytes();
}

}  // namespace repflow::core
