#include "graph/flow_network.h"

#include <cassert>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace repflow::graph {

namespace {
constexpr std::size_t kMaxVertices =
    static_cast<std::size_t>(std::numeric_limits<Vertex>::max());
constexpr std::size_t kMaxArcs =
    static_cast<std::size_t>(std::numeric_limits<ArcId>::max());
}  // namespace

void FlowNetwork::add_vertices(Vertex count) {
  if (count < 0) throw std::invalid_argument("add_vertices: negative count");
  const std::size_t total =
      out_degree_.size() + static_cast<std::size_t>(count);
  if (total > kMaxVertices) {
    throw std::length_error("add_vertices: vertex count " +
                            std::to_string(total) + " exceeds Vertex max " +
                            std::to_string(kMaxVertices));
  }
  out_degree_.resize(total, 0);
  csr_dirty_ = true;
}

ArcId FlowNetwork::add_arc(Vertex tail, Vertex head, Cap cap) {
  if (tail < 0 || tail >= num_vertices() || head < 0 ||
      head >= num_vertices()) {
    throw std::out_of_range("add_arc: vertex out of range");
  }
  if (cap < 0) throw std::invalid_argument("add_arc: negative capacity");
  if (head_.size() + 2 > kMaxArcs) {
    throw std::length_error("add_arc: arc slot count " +
                            std::to_string(head_.size() + 2) +
                            " exceeds ArcId max " + std::to_string(kMaxArcs));
  }
  const ArcId forward = static_cast<ArcId>(head_.size());
  head_.push_back(head);
  cap_.push_back(cap);
  flow_.push_back(0);
  head_.push_back(tail);
  cap_.push_back(0);
  flow_.push_back(0);
  ++out_degree_[tail];
  ++out_degree_[head];
  csr_dirty_ = true;
  return forward;
}

void FlowNetwork::reset(Vertex vertices) {
  head_.clear();
  cap_.clear();
  flow_.clear();
  out_degree_.clear();
  csr_dirty_ = true;
  if (vertices > 0) add_vertices(vertices);
}

void FlowNetwork::rebuild_csr() const {
  // Counting sort of arc ids by tail vertex.  Arc ids are scattered in
  // ascending order, so each vertex's CSR range lists its arcs in insertion
  // order — identical adjacency order to the old vector-of-vectors layout,
  // which keeps every engine's traversal (and thus results) deterministic.
  const std::size_t v_count = out_degree_.size();
  first_out_.resize(v_count + 1);
  csr_cursor_.resize(v_count);
  std::int32_t offset = 0;
  for (std::size_t v = 0; v < v_count; ++v) {
    first_out_[v] = offset;
    csr_cursor_[v] = offset;
    offset += out_degree_[v];
  }
  first_out_[v_count] = offset;
  out_arcs_.resize(static_cast<std::size_t>(offset));
  const ArcId arcs = static_cast<ArcId>(head_.size());
  for (ArcId a = 0; a < arcs; ++a) {
    const Vertex t = head_[a ^ 1];  // tail(a)
    out_arcs_[static_cast<std::size_t>(csr_cursor_[t]++)] = a;
  }
  csr_dirty_ = false;
}

void FlowNetwork::push_on(ArcId a, Cap delta) {
  assert(residual(a) >= delta && "push exceeds residual capacity");
  flow_[a] += delta;
  flow_[a ^ 1] -= delta;
}

void FlowNetwork::set_pair_flow(ArcId forward_arc, Cap f) {
  assert(is_forward(forward_arc));
  flow_[forward_arc] = f;
  flow_[forward_arc ^ 1] = -f;
}

void FlowNetwork::clear_flow() {
  for (auto& f : flow_) f = 0;
}

std::vector<Cap> FlowNetwork::save_flows() const {
  std::vector<Cap> snapshot;
  save_flows_into(snapshot);
  return snapshot;
}

void FlowNetwork::save_flows_into(std::vector<Cap>& snapshot) const {
  snapshot.resize(static_cast<std::size_t>(num_edges()));
  for (ArcId e = 0; e < num_edges(); ++e) snapshot[e] = flow_[2 * e];
}

void FlowNetwork::restore_flows(const std::vector<Cap>& snapshot) {
  if (snapshot.size() != static_cast<std::size_t>(num_edges())) {
    throw std::invalid_argument("restore_flows: snapshot size mismatch");
  }
  for (ArcId e = 0; e < num_edges(); ++e) {
    flow_[2 * e] = snapshot[e];
    flow_[2 * e + 1] = -snapshot[e];
  }
}

Cap FlowNetwork::flow_into(Vertex t) const {
  Cap total = 0;
  for (ArcId a : out_arcs(t)) {
    // Out-arc `a` of t carries t's outgoing flow; flow INTO t on the paired
    // arc is -flow(a).
    total -= flow_[a];
  }
  return total;
}

Cap FlowNetwork::net_out_flow(Vertex v) const {
  Cap total = 0;
  for (ArcId a : out_arcs(v)) total += flow_[a];
  return total;
}

std::size_t FlowNetwork::retained_bytes() const {
  return head_.capacity() * sizeof(Vertex) + cap_.capacity() * sizeof(Cap) +
         flow_.capacity() * sizeof(Cap) +
         out_degree_.capacity() * sizeof(std::int32_t) +
         out_arcs_.capacity() * sizeof(ArcId) +
         first_out_.capacity() * sizeof(std::int32_t) +
         csr_cursor_.capacity() * sizeof(std::int32_t);
}

std::string FlowNetwork::to_string() const {
  std::ostringstream os;
  os << "FlowNetwork{V=" << num_vertices() << ", E=" << num_edges() << "}\n";
  for (ArcId a = 0; a < num_arcs(); a += 2) {
    os << "  " << tail(a) << " -> " << head(a) << "  cap=" << cap_[a]
       << " flow=" << flow_[a] << "\n";
  }
  return os.str();
}

}  // namespace repflow::graph
