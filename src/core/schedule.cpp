#include "core/schedule.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace repflow::core {

double Schedule::response_time(const workload::SystemConfig& system) const {
  double worst = 0.0;
  for (std::size_t d = 0; d < per_disk_count.size(); ++d) {
    if (per_disk_count[d] > 0) {
      worst = std::max(worst, system.completion_time(static_cast<DiskId>(d),
                                                     per_disk_count[d]));
    }
  }
  return worst;
}

DiskId Schedule::bottleneck_disk(const workload::SystemConfig& system) const {
  DiskId best = -1;
  double worst = -1.0;
  for (std::size_t d = 0; d < per_disk_count.size(); ++d) {
    if (per_disk_count[d] > 0) {
      const double t = system.completion_time(static_cast<DiskId>(d),
                                              per_disk_count[d]);
      if (t > worst) {
        worst = t;
        best = static_cast<DiskId>(d);
      }
    }
  }
  return best;
}

std::string Schedule::to_string() const {
  std::ostringstream os;
  os << "Schedule{";
  for (std::size_t b = 0; b < assigned_disk.size(); ++b) {
    if (b) os << ", ";
    os << b << "->" << assigned_disk[b];
  }
  os << "}";
  return os.str();
}

Schedule extract_schedule(const RetrievalNetwork& network) {
  Schedule schedule;
  extract_schedule_into(network, schedule);
  return schedule;
}

void extract_schedule_into(const RetrievalNetwork& network,
                           Schedule& schedule) {
  const RetrievalProblem& problem = network.problem();
  const auto& net = network.net();
  if (network.flow_value() != problem.query_size()) {
    throw std::logic_error("extract_schedule: flow is not complete");
  }
  schedule.assigned_disk.assign(
      static_cast<std::size_t>(problem.query_size()), -1);
  schedule.per_disk_count.assign(
      static_cast<std::size_t>(problem.total_disks()), 0);
  for (std::int64_t b = 0; b < problem.query_size(); ++b) {
    const graph::Vertex bv = network.bucket_vertex(b);
    for (graph::ArcId a : net.out_arcs(bv)) {
      if (!net.is_forward(a) || net.flow(a) <= 0) continue;
      const graph::Vertex head = net.head(a);
      if (head == network.source()) continue;
      const DiskId disk =
          static_cast<DiskId>(head - network.disk_vertex(0));
      schedule.assigned_disk[static_cast<std::size_t>(b)] = disk;
      ++schedule.per_disk_count[static_cast<std::size_t>(disk)];
      break;  // capacity 1: at most one outgoing unit
    }
    if (schedule.assigned_disk[static_cast<std::size_t>(b)] < 0) {
      throw std::logic_error("extract_schedule: unassigned bucket");
    }
  }
}

}  // namespace repflow::core
