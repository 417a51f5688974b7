#include "core/network.h"

#include <algorithm>

namespace repflow::core {

RetrievalNetwork::RetrievalNetwork(const RetrievalProblem& problem) {
  rebuild(problem);
}

void RetrievalNetwork::rebuild(const RetrievalProblem& problem) {
  problem_ = &problem;
  const std::int64_t q = problem.query_size();
  const std::int32_t disks = problem.total_disks();
  net_.reset(static_cast<graph::Vertex>(q + disks + 2));
  source_ = static_cast<graph::Vertex>(q + disks);
  sink_ = static_cast<graph::Vertex>(q + disks + 1);
  source_arcs_.clear();
  source_arcs_.reserve(static_cast<std::size_t>(q));
  in_degree_.assign(static_cast<std::size_t>(disks), 0);
  for (std::int64_t b = 0; b < q; ++b) {
    source_arcs_.push_back(net_.add_arc(source_, bucket_vertex(b), 1));
    for (DiskId d : problem.replicas[static_cast<std::size_t>(b)]) {
      net_.add_arc(bucket_vertex(b), disk_vertex(d), 1);
      ++in_degree_[d];
    }
  }
  sink_arcs_.clear();
  sink_arcs_.reserve(static_cast<std::size_t>(disks));
  for (DiskId d = 0; d < disks; ++d) {
    sink_arcs_.push_back(net_.add_arc(disk_vertex(d), sink_, 0));
  }
  // Topology is final for this problem: materialize the CSR here so readers
  // (including concurrent ones in the parallel engine and the stream
  // scheduler's worker threads) never trigger the lazy rebuild through a
  // const reference.
  net_.finalize_adjacency();
}

std::int64_t RetrievalNetwork::capacity_for_time(DiskId disk, double t) const {
  return problem_->system.slots_within(disk, t);
}

void RetrievalNetwork::set_capacities_for_time(double t) {
  for (DiskId d = 0; d < problem_->total_disks(); ++d) {
    net_.set_capacity(sink_arcs_[d], capacity_for_time(d, t));
  }
}

void RetrievalNetwork::set_uniform_capacities(std::int64_t cap) {
  for (graph::ArcId a : sink_arcs_) net_.set_capacity(a, cap);
}

void RetrievalNetwork::set_assignment_flow(
    const std::vector<std::int32_t>& disk_of_bucket) {
  for (std::int64_t b = 0; b < problem_->query_size(); ++b) {
    const DiskId d = disk_of_bucket[static_cast<std::size_t>(b)];
    if (d < 0) continue;
    // rebuild() adds bucket b's replica arcs right after its source arc, so
    // the arc to its k-th replica is k + 1 pairs past the source arc.
    const auto& replicas = problem_->replicas[static_cast<std::size_t>(b)];
    const auto k = std::find(replicas.begin(), replicas.end(), d) -
                   replicas.begin();
    const graph::ArcId source = source_arcs_[b];
    net_.set_pair_flow(source, 1);
    net_.set_pair_flow(source + 2 * static_cast<graph::ArcId>(k + 1), 1);
    net_.set_pair_flow(sink_arcs_[d], net_.flow(sink_arcs_[d]) + 1);
  }
}

std::size_t RetrievalNetwork::retained_bytes() const {
  return net_.retained_bytes() +
         source_arcs_.capacity() * sizeof(graph::ArcId) +
         sink_arcs_.capacity() * sizeof(graph::ArcId) +
         in_degree_.capacity() * sizeof(std::int32_t);
}

std::vector<std::int64_t> RetrievalNetwork::sink_capacities() const {
  std::vector<std::int64_t> caps;
  caps.reserve(sink_arcs_.size());
  for (graph::ArcId a : sink_arcs_) caps.push_back(net_.capacity(a));
  return caps;
}

}  // namespace repflow::core
