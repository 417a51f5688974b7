// Directed flow network with residual-arc representation.
//
// This is the repository's replacement for the LEDA graph container used by
// the paper.  Arcs are stored in forward/reverse pairs: arc 2k is the forward
// arc with its declared capacity, arc 2k+1 is its reverse with capacity 0.
// Pushing f units on arc a adds f to flow[a] and subtracts f from
// flow[a ^ 1], so residual capacities of both directions stay consistent and
// "reversing an edge" (Algorithm 1/2 of the paper) is simply pushing on the
// reverse arc.
//
// Adjacency is a flat CSR layout (contiguous out_arcs_ + first_out_ offset
// arrays) rebuilt lazily after topology edits, so the engines' inner loops
// scan one contiguous range per vertex instead of chasing a vector-of-
// vectors.  reset() clears the network while retaining every buffer's
// capacity: rebuilding a same-footprint network allocates nothing, which is
// what the pooled solvers (core/solver_pool.h) rely on.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace repflow::graph {

using Vertex = std::int32_t;
using ArcId = std::int32_t;
using Cap = std::int64_t;

constexpr Vertex kInvalidVertex = -1;
constexpr ArcId kInvalidArc = -1;

/// Mutable flow network.  Vertices are dense integers [0, num_vertices()).
class FlowNetwork {
 public:
  FlowNetwork() = default;
  explicit FlowNetwork(Vertex initial_vertices) {
    add_vertices(initial_vertices);
  }

  void add_vertices(Vertex count);

  /// Create the forward/reverse arc pair (tail -> head) with capacity `cap`.
  /// Returns the forward arc id (always even); the reverse id is `id + 1`.
  /// Throws std::length_error when another pair would overflow ArcId.
  ArcId add_arc(Vertex tail, Vertex head, Cap cap);

  /// Drop all vertices and arcs, then re-add `vertices` empty vertices.
  /// Every internal buffer keeps its capacity, so re-populating a network
  /// of the same (or smaller) footprint performs no heap allocation.
  void reset(Vertex vertices = 0);

  Vertex num_vertices() const {
    return static_cast<Vertex>(out_degree_.size());
  }
  /// Number of *directed arc slots*, i.e. 2x the number of added edges.
  ArcId num_arcs() const { return static_cast<ArcId>(head_.size()); }
  /// Number of logical (forward) edges.
  ArcId num_edges() const { return num_arcs() / 2; }

  Vertex head(ArcId a) const { return head_[a]; }
  Vertex tail(ArcId a) const { return head_[a ^ 1]; }
  ArcId reverse(ArcId a) const { return a ^ 1; }
  bool is_forward(ArcId a) const { return (a & 1) == 0; }

  Cap capacity(ArcId a) const { return cap_[a]; }
  Cap flow(ArcId a) const { return flow_[a]; }
  Cap residual(ArcId a) const { return cap_[a] - flow_[a]; }

  /// The per-arc flow array itself, for the parallel engine, which pushes
  /// on it in place through std::atomic_ref.  Invalidated by topology
  /// edits.
  std::span<Cap> flows() { return flow_; }

  /// Replace the capacity of one directed arc (used by the retrieval
  /// algorithms to retune sink-edge capacities between max-flow runs).
  void set_capacity(ArcId a, Cap cap) { cap_[a] = cap; }

  /// Push `delta` units along arc `a` (and implicitly -delta on reverse).
  /// Callers must respect residual(a) >= delta; checked in debug builds.
  void push_on(ArcId a, Cap delta);

  /// Overwrite the flow of a forward arc and its reverse pair directly.
  /// Used when restoring a saved flow snapshot.
  void set_pair_flow(ArcId forward_arc, Cap f);

  /// Zero all flows.
  void clear_flow();

  /// Arc ids leaving `v` (both forward and reverse slots), in insertion
  /// order, as one contiguous CSR range.  The span is invalidated by the
  /// next topology edit (add_vertices/add_arc/reset).
  std::span<const ArcId> out_arcs(Vertex v) const {
    if (csr_dirty_) rebuild_csr();
    return {out_arcs_.data() + first_out_[static_cast<std::size_t>(v)],
            out_arcs_.data() + first_out_[static_cast<std::size_t>(v) + 1]};
  }
  std::int32_t out_degree(Vertex v) const { return out_degree_[v]; }

  /// Eagerly rebuild the CSR adjacency after topology edits.
  ///
  /// out_arcs() rebuilds lazily, which mutates the (mutable) cache inside a
  /// const member — fine single-threaded, but a data race the moment a
  /// "read-only" network is shared across threads while still dirty (the
  /// parallel engine's workers and any concurrent bench reader would race
  /// on the first touch).  Builders (RetrievalNetwork::rebuild, generators)
  /// call this once at the end of an edit batch so the network they hand
  /// out is genuinely immutable-for-readers.
  void finalize_adjacency() {
    if (csr_dirty_) rebuild_csr();
  }

  /// True while a topology edit has left the CSR cache stale (the next
  /// out_arcs() call would rebuild).  Exposed so tests and the analysis
  /// layer can assert rebuild seams hand out finalized networks.
  bool adjacency_dirty() const { return csr_dirty_; }

  /// Flow snapshots: forward-arc flows only (reverse flows are derived).
  std::vector<Cap> save_flows() const;
  /// Allocation-free variant: overwrite `snapshot` (resized in place).
  void save_flows_into(std::vector<Cap>& snapshot) const;
  void restore_flows(const std::vector<Cap>& snapshot);

  /// Sum of flow on arcs entering `t` (the |f| of Equation 2 in the paper).
  Cap flow_into(Vertex t) const;

  /// Net out-flow of a vertex (0 for all conserved vertices of a flow).
  Cap net_out_flow(Vertex v) const;

  /// Capacity-based estimate of the retained heap footprint.
  std::size_t retained_bytes() const;

  /// Human-readable dump for debugging and golden tests.
  std::string to_string() const;

 private:
  void rebuild_csr() const;

  std::vector<Vertex> head_;              // per arc slot
  std::vector<Cap> cap_;                  // per arc slot
  std::vector<Cap> flow_;                 // per arc slot
  std::vector<std::int32_t> out_degree_;  // per vertex

  // CSR adjacency cache, rebuilt lazily (counting sort over arc ids, which
  // preserves per-vertex insertion order because arc ids are monotone).
  mutable std::vector<ArcId> out_arcs_;        // arc ids grouped by tail
  mutable std::vector<std::int32_t> first_out_;  // vertex -> offset, size V+1
  mutable std::vector<std::int32_t> csr_cursor_; // scatter scratch
  mutable bool csr_dirty_ = true;
};

}  // namespace repflow::graph
