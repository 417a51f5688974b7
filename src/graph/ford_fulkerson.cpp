#include "graph/ford_fulkerson.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "analysis/check.h"

namespace repflow::graph {

std::string FlowStats::to_string() const {
  std::ostringstream os;
  os << "augment=" << augmentations << " push=" << pushes
     << " relabel=" << relabels << " global=" << global_relabels
     << " gap=" << gap_jumps << " visits=" << dfs_visits;
  return os.str();
}

FordFulkerson::FordFulkerson(FlowNetwork& net, SearchOrder order)
    : net_(net), order_(order) {}

FordFulkerson::FordFulkerson(FlowNetwork& net, Vertex source, Vertex sink,
                             SearchOrder order)
    : FordFulkerson(net, order) {
  rebind(source, sink);
}

void FordFulkerson::validate_endpoints() const {
  if (source_ < 0 || source_ >= net_.num_vertices() || sink_ < 0 ||
      sink_ >= net_.num_vertices() || source_ == sink_) {
    throw std::invalid_argument("FordFulkerson: bad source/sink");
  }
}

void FordFulkerson::ensure_sizes() {
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  if (visited_mark_.size() < n) visited_mark_.resize(n, 0);
  if (parent_arc_.size() < n) parent_arc_.resize(n, kInvalidArc);
  if (arc_cursor_.size() < n) arc_cursor_.resize(n, 0);
}

void FordFulkerson::rebind(Vertex source, Vertex sink) {
  source_ = source;
  sink_ = sink;
  validate_endpoints();
  ensure_sizes();
}

Cap FordFulkerson::augment_once(Vertex from) {
  if (from == kInvalidVertex) from = source_;
  // The network may have grown since construction (not used by the retrieval
  // algorithms, but keeps the engine honest as a general component).
  ensure_sizes();
  const Cap pushed =
      order_ == SearchOrder::kDfs ? dfs_augment(from) : bfs_augment(from);
  // Preflow (not flow) invariants: Algorithms 1/2 park one unit of excess
  // at every bucket vertex and drain them with per-bucket augmentations.
  if (pushed > 0) {
    REPFLOW_CHECK_PREFLOW(net_, source_, sink_, "ff.post_augment");
  }
  return pushed;
}

Cap FordFulkerson::dfs_augment(Vertex from) {
  const std::uint32_t epoch = ++mark_epoch_;
  auto& visited = visited_mark_;
  auto& cursor = arc_cursor_;
  auto& path = path_;
  auto& stack = stack_;
  path.clear();
  // Iterative DFS over residual arcs; cursor[v] indexes v's out-arc list
  // for the current epoch.
  stack.clear();
  stack.push_back(from);
  visited[from] = epoch;
  cursor[from] = 0;
  ++stats_.dfs_visits;
  while (!stack.empty()) {
    const Vertex v = stack.back();
    if (v == sink_) break;
    bool descended = false;
    auto arcs = net_.out_arcs(v);
    for (std::uint32_t& i = cursor[v]; i < arcs.size(); ++i) {
      const ArcId a = arcs[i];
      const Vertex w = net_.head(a);
      if (net_.residual(a) <= 0 || visited[w] == epoch) continue;
      visited[w] = epoch;
      cursor[w] = 0;
      path.push_back(a);
      stack.push_back(w);
      ++stats_.dfs_visits;
      ++i;  // resume after this arc when we pop back to v
      descended = true;
      break;
    }
    if (!descended) {
      stack.pop_back();
      if (!path.empty() && !stack.empty()) path.pop_back();
    }
  }
  if (stack.empty() || stack.back() != sink_) return 0;
  Cap bottleneck = std::numeric_limits<Cap>::max();
  for (ArcId a : path) bottleneck = std::min(bottleneck, net_.residual(a));
  for (ArcId a : path) net_.push_on(a, bottleneck);
  ++stats_.augmentations;
  return bottleneck;
}

Cap FordFulkerson::bfs_augment(Vertex from) {
  const std::uint32_t epoch = ++mark_epoch_;
  auto& visited = visited_mark_;
  auto& parent = parent_arc_;
  auto& queue = stack_;
  queue.clear();
  queue.push_back(from);
  visited[from] = epoch;
  parent[from] = kInvalidArc;
  ++stats_.dfs_visits;
  std::size_t qi = 0;
  bool reached = false;
  while (qi < queue.size() && !reached) {
    const Vertex v = queue[qi++];
    for (ArcId a : net_.out_arcs(v)) {
      const Vertex w = net_.head(a);
      if (net_.residual(a) <= 0 || visited[w] == epoch) continue;
      visited[w] = epoch;
      parent[w] = a;
      ++stats_.dfs_visits;
      if (w == sink_) {
        reached = true;
        break;
      }
      queue.push_back(w);
    }
  }
  if (!reached) return 0;
  Cap bottleneck = std::numeric_limits<Cap>::max();
  for (Vertex v = sink_; v != from;) {
    const ArcId a = parent[v];
    bottleneck = std::min(bottleneck, net_.residual(a));
    v = net_.tail(a);
  }
  for (Vertex v = sink_; v != from;) {
    const ArcId a = parent[v];
    net_.push_on(a, bottleneck);
    v = net_.tail(a);
  }
  ++stats_.augmentations;
  return bottleneck;
}

Cap FordFulkerson::run() {
  Cap pushed = 0;
  while (Cap delta = augment_once()) pushed += delta;
  return pushed;
}

std::size_t FordFulkerson::retained_bytes() const {
  return (visited_mark_.capacity() + arc_cursor_.capacity()) *
             sizeof(std::uint32_t) +
         (parent_arc_.capacity() + path_.capacity()) * sizeof(ArcId) +
         stack_.capacity() * sizeof(Vertex);
}

MaxflowResult FordFulkerson::solve_from_zero() {
  net_.clear_flow();
  const FlowStats before = stats_;
  MaxflowResult result;
  result.value = run();
  result.stats = stats_ - before;  // per-run view; stats_ stays cumulative
  REPFLOW_CHECK_FLOW(net_, source_, sink_, "ff.solve_from_zero");
  REPFLOW_CHECK_MAXFLOW(net_, source_, sink_, "ff.solve_from_zero");
  return result;
}

}  // namespace repflow::graph
