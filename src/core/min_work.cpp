#include "core/min_work.h"

#include <stdexcept>

#include "core/network.h"
#include "core/push_relabel_binary.h"
#include "core/schedule.h"
#include "graph/min_cost_flow.h"

namespace repflow::core {

double schedule_total_work(const RetrievalProblem& problem,
                           const Schedule& schedule) {
  double total = 0.0;
  for (DiskId d : schedule.assigned_disk) {
    total += problem.system.cost_ms[d];
  }
  return total;
}

MinWorkResult solve_min_total_work(const RetrievalProblem& problem) {
  // Phase 1: the optimal response time.
  PushRelabelBinarySolver primary;
  SolveResult primary_result;
  primary.solve_into(problem, primary_result);
  const double t_star = primary_result.response_time_ms;

  // Phase 2: min-cost max-flow under caps(t*); assigning a bucket to disk
  // j costs C_j on the bucket->disk arc.
  RetrievalNetwork network(problem);
  network.set_capacities_for_time(t_star);
  auto& net = network.net();
  std::vector<graph::Cost> costs(static_cast<std::size_t>(net.num_edges()),
                                 0.0);
  for (graph::ArcId a = 0; a < net.num_arcs(); a += 2) {
    const graph::Vertex head = net.head(a);
    const graph::Vertex disk0 = network.disk_vertex(0);
    if (net.tail(a) != network.source() && head != network.sink() &&
        head >= disk0) {
      // bucket -> disk arc
      const DiskId disk = static_cast<DiskId>(head - disk0);
      costs[static_cast<std::size_t>(a >> 1)] = problem.system.cost_ms[disk];
    }
  }
  graph::MinCostMaxflow mcmf(net, network.source(), network.sink(),
                             std::move(costs));
  const auto flow = mcmf.solve_from_zero();
  if (flow.flow != problem.query_size()) {
    throw std::logic_error(
        "solve_min_total_work: caps(t*) lost feasibility (internal error)");
  }

  MinWorkResult result;
  result.solve = primary_result;
  result.solve.schedule = extract_schedule(network);
  result.solve.response_time_ms =
      result.solve.schedule.response_time(problem.system);
  result.total_work_ms =
      schedule_total_work(problem, result.solve.schedule);
  return result;
}

}  // namespace repflow::core
