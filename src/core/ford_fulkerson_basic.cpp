#include "core/ford_fulkerson_basic.h"

#include <stdexcept>

#include "analysis/schedule_invariants.h"

#include "obs/span.h"

namespace repflow::core {

namespace {
void require_basic(const RetrievalProblem& problem) {
  if (!problem.system.is_basic()) {
    throw std::invalid_argument(
        "FordFulkersonBasicSolver: requires a basic (homogeneous, zero "
        "delay/load) system; use FordFulkersonIncrementalSolver");
  }
}
}  // namespace

void FordFulkersonBasicSolver::solve_into(const RetrievalProblem& problem,
                                          SolveResult& result) {
  require_basic(problem);
  result.clear();
  network_.rebuild(problem);
  engine_.rebind(network_.source(), network_.sink());
  auto& net = network_.net();
  const std::int64_t q = problem.query_size();

  // Lines 1-2: uniform theoretical lower bound ceil(|Q|/N).
  std::int64_t cap = basic_lower_bound_accesses(problem);
  network_.set_uniform_capacities(cap);

  // The paper initializes all source-arc flows to 1 up front; each bucket's
  // unit then starts parked at its bucket vertex and the per-bucket DFS
  // drains it to the sink.
  for (std::int64_t b = 0; b < q; ++b) {
    net.set_pair_flow(network_.source_arc(b), 1);
  }

  const graph::FlowStats stats_before = engine_.stats();
  for (std::int64_t b = 0; b < q; ++b) {
    // Lines 3-8: augment from this bucket; bump every sink capacity by one
    // whenever the residual graph has no bucket->sink path.
    obs::ScopedSpan span("alg1.augment");
    while (engine_.augment_once(network_.bucket_vertex(b)) == 0) {
      obs::ScopedSpan step("alg1.capacity_step");
      ++cap;
      network_.set_uniform_capacities(cap);
      ++result.capacity_steps;
    }
  }

  result.flow_stats = engine_.stats() - stats_before;
  extract_schedule_into(network_, result.schedule);
  result.response_time_ms = result.schedule.response_time(problem.system);
  REPFLOW_CHECK_SOLVE(problem, network_, result, "alg1_ff_basic.post_solve");
}

std::size_t FordFulkersonBasicSolver::retained_bytes() const {
  return network_.retained_bytes() + engine_.retained_bytes();
}

}  // namespace repflow::core
