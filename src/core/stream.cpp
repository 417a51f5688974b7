#include "core/stream.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace repflow::core {

QueryStreamScheduler::QueryStreamScheduler(
    const decluster::ReplicatedAllocation& allocation,
    workload::SystemConfig base_system, ExecutionPolicy policy)
    : allocation_(&allocation),
      problem_{.replicas = {}, .system = std::move(base_system)},
      exec_(policy) {
  if (allocation_->total_disks() != problem_.total_disks()) {
    throw std::invalid_argument(
        "QueryStreamScheduler: allocation/system disk count mismatch");
  }
  busy_until_.assign(static_cast<std::size_t>(problem_.total_disks()), 0.0);
}

QueryStreamScheduler::QueryStreamScheduler(workload::SystemConfig base_system,
                                           ExecutionPolicy policy)
    : allocation_(nullptr),
      problem_{.replicas = {}, .system = std::move(base_system)},
      exec_(policy) {
  busy_until_.assign(static_cast<std::size_t>(problem_.total_disks()), 0.0);
}

StreamEvent QueryStreamScheduler::submit(const workload::Query& query,
                                         double arrival_ms) {
  if (allocation_ == nullptr) {
    throw std::logic_error(
        "QueryStreamScheduler: no allocation (trace-replay mode); use "
        "submit_replicas");
  }
  // The constructor matched the allocation's disk count to the system's,
  // and the solve seam validates the rest.
  fill_replicas(query);
  const double max_backlog = advance_loads(arrival_ms);
  return submit_problem(arrival_ms, max_backlog);
}

StreamEvent QueryStreamScheduler::submit_replicas(
    std::vector<std::vector<DiskId>> replicas, double arrival_ms) {
  problem_.replicas = std::move(replicas);
  const double max_backlog = advance_loads(arrival_ms);
  return submit_problem(arrival_ms, max_backlog);
}

void QueryStreamScheduler::fill_replicas(const workload::Query& query) {
  auto& lists = problem_.replicas;
  // Resize by hand: resize() would free the lists past a smaller |Q|.
  while (lists.size() > query.size()) {
    spare_lists_.push_back(std::move(lists.back()));
    lists.pop_back();
  }
  while (lists.size() < query.size()) {
    if (spare_lists_.empty()) {
      lists.emplace_back();
    } else {
      lists.push_back(std::move(spare_lists_.back()));
      spare_lists_.pop_back();
    }
  }
  fill_replica_lists(*allocation_, query, lists);
}

double QueryStreamScheduler::max_backlog_at(double arrival_ms) const {
  double max_backlog = 0.0;
  for (const double horizon : busy_until_) {
    max_backlog = std::max(max_backlog, horizon - arrival_ms);
  }
  return std::max(0.0, max_backlog);
}

double QueryStreamScheduler::advance_loads(double arrival_ms) {
  if (!std::isfinite(arrival_ms)) {
    throw std::invalid_argument("QueryStreamScheduler: arrival is not finite");
  }
  if (arrival_ms < last_arrival_ms_) {
    throw std::invalid_argument(
        "QueryStreamScheduler: arrivals must be non-decreasing");
  }
  // X_j = residual busy time of disk j at this query's arrival, exactly the
  // paper's "time it takes for disk j to be idle if busy, 0 otherwise".
  double max_backlog = 0.0;
  auto& init_load = problem_.system.init_load_ms;
  for (std::size_t d = 0; d < busy_until_.size(); ++d) {
    init_load[d] = std::max(0.0, busy_until_[d] - arrival_ms);
    max_backlog = std::max(max_backlog, init_load[d]);
  }
  return max_backlog;
}

StreamEvent QueryStreamScheduler::submit_problem(double arrival_ms,
                                                 double max_backlog) {
  obs::ScopedSpan span("stream.submit");
  const RetrievalProblem& problem = problem_;
  // Query-id propagation (DESIGN.md): reuse the router-owned ambient
  // scope when one is active, otherwise self-assign an id so direct
  // scheduler use still produces a complete flight chain.
  std::uint64_t query_id = obs::QueryScope::current().id;
  std::optional<obs::QueryScope> own_scope;
  if (query_id == 0) {
    query_id = obs::FlightRecorder::global().next_query_id();
    own_scope.emplace(query_id);
  }
  // Pooled solve into the reused scratch buffer: after the first query,
  // the solver-internal path allocates nothing.  The context times it.
  const double solve_ms = exec_.solve_into(problem, exec_.scratch());
  const SolveResult& result = exec_.scratch();
  // A finite problem can still finish at +inf (two blocks at C = 1e308).
  // That optimum is legal for one query, but as a busy horizon it would
  // fail every later one, so the stream refuses it.
  if (!std::isfinite(arrival_ms + result.response_time_ms)) {
    throw std::invalid_argument(
        "QueryStreamScheduler: completion time is not finite");
  }
  // Commit the clock only now: a problem the seam rejected left the stream
  // as it was, so an earlier arrival may still follow it.
  last_arrival_ms_ = arrival_ms;

  // Advance each used disk's busy horizon by the work this schedule put on
  // it (the response-time model's completion: D + X + k*C after arrival).
  // The bottleneck disk (latest completion) doubles as the kSchedule
  // event's detail.
  std::int32_t bottleneck_disk = -1;
  double bottleneck_completion = 0.0;
  for (std::size_t d = 0; d < busy_until_.size(); ++d) {
    const std::int64_t k = result.schedule.per_disk_count[d];
    if (k > 0) {
      const double completion =
          problem.completion_time(static_cast<DiskId>(d), k);
      busy_until_[d] = arrival_ms + completion;
      if (completion > bottleneck_completion) {
        bottleneck_completion = completion;
        bottleneck_disk = static_cast<std::int32_t>(d);
      }
    }
  }

  StreamEvent event;
  event.query_id = query_id;
  event.arrival_ms = arrival_ms;
  event.response_ms = result.response_time_ms;
  event.completion_ms = arrival_ms + result.response_time_ms;
  event.max_initial_load_ms = max_backlog;
  event.solve_ms = solve_ms;
  event.buckets = problem.query_size();
  // Copy (not move): the scratch result keeps its vector capacities for
  // the next query.
  event.schedule = result.schedule;

  // The delivered response, process-wide (stats() reads this scheduler's
  // from events_).  The backlog is the router's to record
  // (router.backlog_ms) and the solve time the context's
  // (solver.<id>.solve_ms).
  static obs::Histogram& response_hist =
      obs::Registry::global().histogram("stream.response_ms");
  response_hist.observe(event.response_ms);

  if (query_id != 0) {
    obs::FlightRecorder::global().record(query_id,
                                         obs::FlightEventKind::kSchedule,
                                         event.response_ms, bottleneck_disk);
  }

  events_.push_back(event);
  return event;
}

StreamStats QueryStreamScheduler::stats() const {
  StreamStats s;
  s.queries = static_cast<std::int64_t>(events_.size());
  std::vector<double> wait, solve, response;
  for (const auto& e : events_) {
    wait.push_back(e.max_initial_load_ms);
    solve.push_back(e.solve_ms);
    response.push_back(e.response_ms);
    s.makespan_ms = std::max(s.makespan_ms, e.completion_ms);
  }
  s.queue_wait = summarize(wait);
  s.solve_time = summarize(solve);
  s.response_time = summarize(response);
  return s;
}

}  // namespace repflow::core
