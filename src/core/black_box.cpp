#include "core/black_box.h"

#include "analysis/schedule_invariants.h"
#include "obs/span.h"

namespace repflow::core {

void BlackBoxBinarySolver::set_capacities_for_time(double t) {
  network_.set_capacities_for_time(t);
}

std::int64_t BlackBoxBinarySolver::resume() {
  // Each probe is a full from-zero max-flow — the cost the integrated
  // algorithms avoid; the span makes that visible in the timeline.
  obs::ScopedSpan span("blackbox.maxflow_run");
  SolveResult& result = *result_;
  ++result.maxflow_runs;
  const graph::MaxflowResult r = engine_.solve_from_zero();
  result.flow_stats += r.stats;
  return r.value;
}

void BlackBoxBinarySolver::solve_into(const RetrievalProblem& problem,
                                      SolveResult& result) {
  result.clear();
  network_.rebuild(problem);
  engine_.rebind(network_.source(), network_.sink());

  result_ = &result;
  driver_.run(problem, network_.in_degrees(), *this, result,
              "blackbox.probe");
  result_ = nullptr;
  extract_schedule_into(network_, result.schedule);
  result.response_time_ms = result.schedule.response_time(problem.system);
  REPFLOW_CHECK_SOLVE(problem, network_, result, "blackbox_binary.post_solve");
}

std::size_t BlackBoxBinarySolver::retained_bytes() const {
  return network_.retained_bytes() + engine_.retained_bytes() +
         driver_.retained_bytes();
}

}  // namespace repflow::core
