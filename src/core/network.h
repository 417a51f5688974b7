// The retrieval flow network (paper Figures 3/4):
//   source -> bucket vertices (capacity 1)
//   bucket -> disk vertices, one arc per replica (capacity 1)
//   disk   -> sink, capacity controlled by the retrieval algorithms.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/problem.h"
#include "graph/flow_network.h"

namespace repflow::core {

class RetrievalNetwork {
 public:
  /// Empty shell; call rebuild() before any other member.
  RetrievalNetwork() = default;
  explicit RetrievalNetwork(const RetrievalProblem& problem);

  /// (Re)build the network for `problem` in place.  All internal buffers —
  /// including the FlowNetwork's arc and CSR arrays — retain their capacity,
  /// so rebuilding for a problem of the same (or smaller) footprint performs
  /// no heap allocation.  `problem` must outlive the next rebuild.
  void rebuild(const RetrievalProblem& problem);

  /// True once rebuild() (or the problem constructor) has run.
  bool built() const { return problem_ != nullptr; }

  graph::FlowNetwork& net() { return net_; }
  const graph::FlowNetwork& net() const { return net_; }
  const RetrievalProblem& problem() const { return *problem_; }

  graph::Vertex source() const { return source_; }
  graph::Vertex sink() const { return sink_; }
  graph::Vertex bucket_vertex(std::int64_t bucket) const {
    return static_cast<graph::Vertex>(bucket);
  }
  graph::Vertex disk_vertex(DiskId disk) const {
    return static_cast<graph::Vertex>(problem_->query_size() + disk);
  }

  graph::ArcId source_arc(std::int64_t bucket) const {
    return source_arcs_[bucket];
  }
  graph::ArcId sink_arc(DiskId disk) const { return sink_arcs_[disk]; }
  std::span<const graph::ArcId> sink_arcs() const { return sink_arcs_; }

  std::int32_t in_degree(DiskId disk) const { return in_degree_[disk]; }
  std::span<const std::int32_t> in_degrees() const { return in_degree_; }

  /// Sink-arc capacity of `disk` implied by candidate response time `t`:
  /// the slots k with completion_time(disk, k) <= t (see
  /// SystemConfig::slots_within; paper Algorithm 6 line 15).
  std::int64_t capacity_for_time(DiskId disk, double t) const;

  /// Set every sink-arc capacity from the candidate response time.
  void set_capacities_for_time(double t);

  /// Set every sink-arc capacity to one value (basic problem).
  void set_uniform_capacities(std::int64_t cap);

  /// On zero flow, route one unit s -> b -> disk_of_bucket[b] -> t for every
  /// bucket b whose entry is not -1 (each entry must be one of b's
  /// replicas).  Capacities are left as they are.
  void set_assignment_flow(const std::vector<std::int32_t>& disk_of_bucket);

  /// Current sink-arc capacities (per disk).
  std::vector<std::int64_t> sink_capacities() const;

  /// Flow currently entering the sink.
  graph::Cap flow_value() const { return net_.flow_into(sink_); }

  /// Number of buckets retrieved from `disk` under the current flow.
  graph::Cap disk_flow(DiskId disk) const { return net_.flow(sink_arcs_[disk]); }

  /// Capacity-based estimate of the retained heap footprint.
  std::size_t retained_bytes() const;

 private:
  const RetrievalProblem* problem_ = nullptr;
  graph::FlowNetwork net_;
  graph::Vertex source_;
  graph::Vertex sink_;
  std::vector<graph::ArcId> source_arcs_;
  std::vector<graph::ArcId> sink_arcs_;
  std::vector<std::int32_t> in_degree_;
};

}  // namespace repflow::core
