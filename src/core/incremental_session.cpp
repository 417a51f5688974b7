#include "core/incremental_session.h"

#include <stdexcept>

#include "obs/metrics.h"

namespace repflow::core {

IncrementalQuerySession::IncrementalQuerySession(
    workload::SystemConfig system)
    : system_(std::move(system)) {
  if (system_.total_disks() < 1) {
    throw std::invalid_argument("IncrementalQuerySession: no disks");
  }
  reset();
  static obs::Counter& opened =
      obs::Registry::global().counter("session.opened");
  opened.add(1);
}

void IncrementalQuerySession::reset() {
  const std::int32_t disks = system_.total_disks();
  net_.reset(static_cast<graph::Vertex>(disks + 2));
  source_ = 0;
  sink_ = 1;
  sink_arcs_.clear();
  sink_arcs_.reserve(static_cast<std::size_t>(disks));
  for (DiskId d = 0; d < disks; ++d) {
    sink_arcs_.push_back(
        net_.add_arc(static_cast<graph::Vertex>(2 + d), sink_, 0));
  }
  in_degree_.assign(static_cast<std::size_t>(disks), 0);
  replicas_.clear();
  bucket_vertex_.clear();
  // rebind() fully clears the engine's excess/queue state, which is what a
  // fresh session needs (resume() relies on a clean start).
  engine_.rebind(source_, sink_);
  clean_ = true;
  capacity_steps_ = 0;
  usable_ = 0;
}

std::int64_t IncrementalQuerySession::add_bucket(
    const std::vector<DiskId>& replicas) {
  if (replicas.empty()) {
    throw std::invalid_argument("add_bucket: bucket needs >= 1 replica");
  }
  for (DiskId d : replicas) {
    if (d < 0 || d >= system_.total_disks()) {
      throw std::invalid_argument("add_bucket: replica disk out of range");
    }
  }
  const graph::Vertex v = net_.add_vertex();
  net_.add_arc(source_, v, 1);
  for (DiskId d : replicas) {
    net_.add_arc(v, static_cast<graph::Vertex>(2 + d), 1);
    ++in_degree_[d];
  }
  replicas_.push_back(replicas);
  bucket_vertex_.push_back(v);
  clean_ = false;
  return static_cast<std::int64_t>(replicas_.size() - 1);
}

double IncrementalQuerySession::reoptimize() {
  static obs::Histogram& reoptimize_ms =
      obs::Registry::global().histogram("session.reoptimize_ms");
  obs::ScopedLatency latency(reoptimize_ms);
  const auto q = static_cast<std::int64_t>(replicas_.size());
  // The in-degrees grew since the last call, so the live edge set is
  // captured afresh.  Bumps only happen while cap < in-degree, so each one
  // grows the usable capacity sum_d min(cap_d, in_degree_d) by exactly one.
  incrementer_.rebind(net_, system_, sink_arcs_, in_degree_);
  auto usable = [&] { return usable_ + incrementer_.total_increments(); };
  graph::Cap reached = engine_.resume();
  while (reached != q) {
    // Batched stepping: any flow is bounded by the usable capacity, so
    // resuming the engine before it reaches |Q| is futile.  The admitted
    // capacity sequence — and therefore the response time and
    // capacity_steps() — is bit-identical to stepping one at a time.
    incrementer_.increment_min_cost();
    while (usable() < q) incrementer_.increment_min_cost();
    reached = engine_.resume();
  }
  usable_ = usable();
  capacity_steps_ += incrementer_.steps();
  clean_ = true;
  return schedule().response_time(system_);
}

Schedule IncrementalQuerySession::schedule() const {
  Schedule s;
  schedule_into(s);
  return s;
}

void IncrementalQuerySession::schedule_into(Schedule& s) const {
  if (!clean_) {
    throw std::logic_error(
        "IncrementalQuerySession::schedule: call reoptimize() first");
  }
  s.assigned_disk.clear();
  s.assigned_disk.reserve(replicas_.size());
  s.per_disk_count.assign(static_cast<std::size_t>(system_.total_disks()),
                          0);
  for (std::size_t b = 0; b < replicas_.size(); ++b) {
    DiskId assigned = -1;
    for (graph::ArcId a : net_.out_arcs(bucket_vertex_[b])) {
      if (!net_.is_forward(a) || net_.flow(a) <= 0) continue;
      const graph::Vertex head = net_.head(a);
      if (head == source_ || head == sink_) continue;
      assigned = static_cast<DiskId>(head - 2);
      break;
    }
    if (assigned < 0) {
      throw std::logic_error("IncrementalQuerySession: unassigned bucket");
    }
    s.assigned_disk.push_back(assigned);
    ++s.per_disk_count[static_cast<std::size_t>(assigned)];
  }
}

std::size_t IncrementalQuerySession::retained_bytes() const {
  return net_.retained_bytes() + engine_.retained_bytes() +
         sink_arcs_.capacity() * sizeof(graph::ArcId) +
         in_degree_.capacity() * sizeof(std::int32_t);
}

}  // namespace repflow::core
