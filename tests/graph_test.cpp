// Unit and property tests for the graph substrate: FlowNetwork, the
// Ford-Fulkerson and push-relabel engines, exact heights, min-cut,
// decomposition, and the push-relabel engines' work pinned on fixed
// networks and Algorithm 6 solves.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "analysis/flow_invariants.h"
#include "core/black_box.h"
#include "core/problem.h"
#include "core/push_relabel_binary.h"
#include "core/solver.h"
#include "decluster/schemes.h"
#include "graph/checks.h"
#include "graph/exact_heights.h"
#include "graph/flow_network.h"
#include "graph/ford_fulkerson.h"
#include "graph/generators.h"
#include "graph/maxflow.h"
#include "graph/push_relabel.h"
#include "support/rng.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

namespace repflow::graph {
namespace {

// The classic 6-vertex CLRS instance with max flow 23.
FlowNetwork clrs_network(Vertex& s, Vertex& t) {
  FlowNetwork net(6);
  s = 0;
  t = 5;
  net.add_arc(0, 1, 16);
  net.add_arc(0, 2, 13);
  net.add_arc(1, 2, 10);
  net.add_arc(2, 1, 4);
  net.add_arc(1, 3, 12);
  net.add_arc(3, 2, 9);
  net.add_arc(2, 4, 14);
  net.add_arc(4, 3, 7);
  net.add_arc(3, 5, 20);
  net.add_arc(4, 5, 4);
  return net;
}

TEST(FlowNetwork, ArcPairInvariants) {
  FlowNetwork net(3);
  const ArcId a = net.add_arc(0, 1, 5);
  EXPECT_EQ(net.tail(a), 0);
  EXPECT_EQ(net.head(a), 1);
  EXPECT_EQ(net.reverse(a), a + 1);
  EXPECT_TRUE(net.is_forward(a));
  EXPECT_FALSE(net.is_forward(a + 1));
  EXPECT_EQ(net.capacity(a), 5);
  EXPECT_EQ(net.capacity(a + 1), 0);
  EXPECT_EQ(net.residual(a), 5);
  net.push_on(a, 3);
  EXPECT_EQ(net.flow(a), 3);
  EXPECT_EQ(net.flow(a + 1), -3);
  EXPECT_EQ(net.residual(a), 2);
  EXPECT_EQ(net.residual(a + 1), 3);
}

TEST(FlowNetwork, RejectsBadArcs) {
  FlowNetwork net(2);
  EXPECT_THROW(net.add_arc(0, 5, 1), std::out_of_range);
  EXPECT_THROW(net.add_arc(-1, 0, 1), std::out_of_range);
  EXPECT_THROW(net.add_arc(0, 1, -1), std::invalid_argument);
}

TEST(FlowNetwork, SaveRestoreFlows) {
  Vertex s, t;
  FlowNetwork net = clrs_network(s, t);
  FordFulkerson ff(net, s, t);
  ff.solve_from_zero();
  const auto snapshot = net.save_flows();
  net.clear_flow();
  EXPECT_EQ(net.flow_into(t), 0);
  net.restore_flows(snapshot);
  EXPECT_EQ(net.flow_into(t), 23);
  EXPECT_TRUE(analysis::check_flow_invariants(net, s, t).ok());
}

TEST(FlowNetwork, RestoreRejectsSizeMismatch) {
  FlowNetwork net(2);
  net.add_arc(0, 1, 1);
  EXPECT_THROW(net.restore_flows({}), std::invalid_argument);
}

TEST(FordFulkerson, ClrsValueDfs) {
  Vertex s, t;
  FlowNetwork net = clrs_network(s, t);
  FordFulkerson engine(net, s, t, SearchOrder::kDfs);
  EXPECT_EQ(engine.solve_from_zero().value, 23);
  EXPECT_TRUE(analysis::check_flow_invariants(net, s, t).ok());
}

TEST(FordFulkerson, ClrsValueBfs) {
  Vertex s, t;
  FlowNetwork net = clrs_network(s, t);
  FordFulkerson engine(net, s, t, SearchOrder::kBfs);
  EXPECT_EQ(engine.solve_from_zero().value, 23);
  EXPECT_TRUE(analysis::check_flow_invariants(net, s, t).ok());
}

TEST(FordFulkerson, IncrementalAugmentation) {
  Vertex s, t;
  FlowNetwork net = clrs_network(s, t);
  FordFulkerson engine(net, s, t);
  Cap total = 0;
  while (Cap d = engine.augment_once()) total += d;
  EXPECT_EQ(total, 23);
  // Re-running finds nothing more.
  EXPECT_EQ(engine.run(), 0);
}

TEST(FordFulkerson, RejectsBadEndpoints) {
  FlowNetwork net(2);
  EXPECT_THROW(FordFulkerson(net, 0, 0), std::invalid_argument);
  EXPECT_THROW(FordFulkerson(net, 0, 7), std::invalid_argument);
}

TEST(PushRelabel, ClrsValue) {
  Vertex s, t;
  FlowNetwork net = clrs_network(s, t);
  PushRelabel engine(net, s, t);
  EXPECT_EQ(engine.solve_from_zero().value, 23);
  EXPECT_TRUE(analysis::check_flow_invariants(net, s, t).ok());
}

TEST(PushRelabel, ZeroHeightInitAlsoCorrect) {
  Vertex s, t;
  FlowNetwork net = clrs_network(s, t);
  PushRelabel engine(net, s, t, HeightInit::kZero);
  EXPECT_EQ(engine.solve_from_zero().value, 23);
  EXPECT_TRUE(analysis::check_flow_invariants(net, s, t).ok());
}

TEST(PushRelabel, DisconnectedSinkGivesZero) {
  FlowNetwork net(4);
  net.add_arc(0, 1, 5);  // 2 -> 3 side disconnected from s
  net.add_arc(2, 3, 5);
  PushRelabel engine(net, 0, 3);
  EXPECT_EQ(engine.solve_from_zero().value, 0);
  EXPECT_TRUE(analysis::check_flow_invariants(net, 0, 3).ok());
}

TEST(PushRelabel, IntegratedResumeAfterCapacityIncrease) {
  // s -> a -> t where the sink edge throttles; raising its capacity and
  // resuming must conserve the existing flow (no from-zero recompute).
  FlowNetwork net(3);
  const ArcId sa = net.add_arc(0, 1, 10);
  const ArcId at = net.add_arc(1, 2, 3);
  PushRelabel engine(net, 0, 2);
  EXPECT_EQ(engine.solve_from_zero().value, 3);
  net.set_capacity(at, 7);
  EXPECT_EQ(engine.resume(), 7);
  EXPECT_TRUE(analysis::check_flow_invariants(net, 0, 2).ok());
  EXPECT_EQ(net.flow(sa), 7);
}

TEST(PushRelabel, ResetExcessAfterRestore) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 4);
  const ArcId at = net.add_arc(1, 2, 2);
  PushRelabel engine(net, 0, 2);
  EXPECT_EQ(engine.solve_from_zero().value, 2);
  const auto snapshot = net.save_flows();
  net.set_capacity(at, 4);
  EXPECT_EQ(engine.resume(), 4);
  net.restore_flows(snapshot);
  engine.reset_excess_after_restore(2);
  net.set_capacity(at, 3);
  EXPECT_EQ(engine.resume(), 3);
  EXPECT_TRUE(analysis::check_flow_invariants(net, 0, 2).ok());
}

// Exact heights from the sink, from the source for vertices cut off from
// the sink, and 2n for vertices that reach neither.
std::vector<std::int32_t> exact_heights_of(const FlowNetwork& net, Vertex s,
                                           Vertex t) {
  const auto n = static_cast<std::size_t>(net.num_vertices());
  std::vector<std::int32_t> height(n);
  std::vector<Vertex> queue(n + 1);
  compute_exact_heights(
      net, s, t, [&net](ArcId a) { return net.residual(a); }, height, queue);
  return height;
}

TEST(ExactHeights, SourceSideAndUnreachedVertices) {
  // s=0, a=1, b=2, t=3, d=4, with s -> a -> t and s -> b each carrying one
  // unit: a still reaches t; b only reaches s, back along its unit of flow,
  // since s (its arcs saturated) reaches nothing; d is isolated.
  FlowNetwork net(5);
  net.push_on(net.add_arc(0, 1, 1), 1);
  net.push_on(net.add_arc(1, 3, 2), 1);
  net.push_on(net.add_arc(0, 2, 1), 1);
  EXPECT_EQ(exact_heights_of(net, 0, 3),
            (std::vector<std::int32_t>{5, 1, 6, 0, 10}));
}

TEST(ExactHeights, EveryVertexButTheSaturatedSourceReachesTheSink) {
  // s -> a is saturated, so the sink-side pass labels a and t but not s;
  // the source-side pass, which could label nothing, is skipped.
  FlowNetwork net(3);
  net.push_on(net.add_arc(0, 1, 1), 1);
  net.push_on(net.add_arc(1, 2, 2), 1);
  EXPECT_EQ(exact_heights_of(net, 0, 2),
            (std::vector<std::int32_t>{3, 1, 0}));
  // Unsaturated, s is reached from the sink too, and still ends at n.
  FlowNetwork open(3);
  open.add_arc(0, 1, 1);
  open.add_arc(1, 2, 1);
  EXPECT_EQ(exact_heights_of(open, 0, 2),
            (std::vector<std::int32_t>{3, 1, 0}));
}

// --- Pinned engine work ---
//
// How the engines find heights and admissible arcs must not change what
// they do: each case pins the pushes, relabels, global relabels and gap
// jumps of one fixed input, bit for bit.

struct Work {
  std::uint64_t pushes;
  std::uint64_t relabels;
  std::uint64_t global_relabels;
  std::uint64_t gap_jumps;
  bool operator==(const Work&) const = default;
};

void PrintTo(const Work& w, std::ostream* os) {
  *os << "{pushes " << w.pushes << ", relabels " << w.relabels
      << ", global relabels " << w.global_relabels << ", gap jumps "
      << w.gap_jumps << "}";
}

Work work_of(const FlowStats& stats) {
  return {stats.pushes, stats.relabels, stats.global_relabels,
          stats.gap_jumps};
}

// The index-th arbitrary Experiment 5 query under `load` on `disks` disks
// (orthogonal allocation, one copy per site), drawn from `seed`.
core::RetrievalProblem exp5_problem(std::int32_t disks, std::uint64_t seed,
                                    workload::LoadKind load, int index) {
  Rng rng(seed);
  const auto rep =
      decluster::make_orthogonal(disks, decluster::SiteMapping::kCopyPerSite);
  const auto sys = workload::make_experiment_system(5, disks, rng);
  const workload::QueryGenerator gen(disks, workload::QueryType::kArbitrary,
                                     load);
  workload::Query query = gen.next(rng);
  for (int i = 0; i < index; ++i) query = gen.next(rng);
  return core::build_problem(rep, query, sys);
}

template <typename Solver, typename... Setting>
Work alg6_work(const core::RetrievalProblem& problem, Setting... setting) {
  Solver solver(setting...);
  core::SolveResult result;
  solver.solve_into(problem, result);
  return work_of(result.flow_stats);
}

TEST(PinnedWork, SolveFromZero) {
  Rng bipartite_rng(7);
  auto bipartite = random_bipartite(200, 20, 3, 8, bipartite_rng);
  EXPECT_EQ(work_of(PushRelabel(bipartite.net, bipartite.source,
                                bipartite.sink)
                        .solve_from_zero()
                        .stats),
            (Work{513, 97, 1, 220}));
  Rng layered_rng(8);
  auto layered = layered_network(8, 10, 4, layered_rng);
  EXPECT_EQ(
      work_of(PushRelabel(layered.net, layered.source, layered.sink)
                  .solve_from_zero()
                  .stats),
      (Work{312, 82, 2, 0}));
}

TEST(PinnedWork, Algorithm6) {
  // Every probe of this solve starts with vertices cut off from the sink,
  // so each exact-height pass runs its source side.
  const auto stranded = exp5_problem(8, 2, workload::LoadKind::kLoad1, 0);
  // Here every vertex but the source reaches the sink at every probe, so
  // the source side is skipped throughout.
  const auto reaching = exp5_problem(8, 42, workload::LoadKind::kLoad1, 2);
  EXPECT_EQ(alg6_work<core::PushRelabelBinarySolver>(stranded),
            (Work{50, 16, 4, 18}));
  EXPECT_EQ(alg6_work<core::PushRelabelBinarySolver>(reaching),
            (Work{124, 44, 4, 61}));
  // The Hong & He engine runs inline at one thread, so its work repeats
  // bit for bit too; it has no gap heuristic.
  EXPECT_EQ(alg6_work<core::ParallelPushRelabelBinarySolver>(stranded, 1),
            (Work{108, 50, 8, 0}));
  // The black box runs the same search, each probe from zero flow.
  EXPECT_EQ(alg6_work<core::BlackBoxBinarySolver>(stranded),
            (Work{342, 66, 4, 30}));
  EXPECT_EQ(alg6_work<core::BlackBoxBinarySolver>(reaching),
            (Work{475, 102, 5, 22}));
  for (const core::RetrievalProblem* problem : {&stranded, &reaching}) {
    core::BlackBoxBinarySolver solver;
    core::SolveResult result;
    solver.solve_into(*problem, result);
    EXPECT_GT(result.binary_probes, 0);
    EXPECT_EQ(result.maxflow_runs, result.binary_probes);
  }
}

TEST(Engines, KeepTheirBuffersAcrossRebind) {
  // Each engine owns the buffers its first run grew; a rerun after
  // rebind() on the same network keeps exactly that footprint.
  Vertex s, t;
  FlowNetwork net = clrs_network(s, t);
  PushRelabel pr(net, s, t);
  EXPECT_EQ(pr.solve_from_zero().value, 23);
  const std::size_t pr_bytes = pr.retained_bytes();
  EXPECT_GT(pr_bytes, 0u);
  pr.rebind(s, t);
  EXPECT_EQ(pr.solve_from_zero().value, 23);
  EXPECT_EQ(pr.retained_bytes(), pr_bytes);

  FordFulkerson ff(net, s, t);
  EXPECT_EQ(ff.solve_from_zero().value, 23);
  const std::size_t ff_bytes = ff.retained_bytes();
  EXPECT_GT(ff_bytes, 0u);
  ff.rebind(s, t);
  EXPECT_EQ(ff.solve_from_zero().value, 23);
  EXPECT_EQ(ff.retained_bytes(), ff_bytes);
}

struct EngineCase {
  const char* name;
  Cap (*solve)(FlowNetwork&, Vertex, Vertex);
};

Cap solve_ff_dfs(FlowNetwork& n, Vertex s, Vertex t) {
  return FordFulkerson(n, s, t, SearchOrder::kDfs).solve_from_zero().value;
}
Cap solve_ff_bfs(FlowNetwork& n, Vertex s, Vertex t) {
  return FordFulkerson(n, s, t, SearchOrder::kBfs).solve_from_zero().value;
}
Cap solve_pr(FlowNetwork& n, Vertex s, Vertex t) {
  return PushRelabel(n, s, t).solve_from_zero().value;
}
Cap solve_pr_plain(FlowNetwork& n, Vertex s, Vertex t) {
  return PushRelabel(n, s, t, HeightInit::kZero).solve_from_zero().value;
}

class EnginesAgree : public ::testing::TestWithParam<int> {};

TEST_P(EnginesAgree, OnRandomGeneralNetworks) {
  Rng rng(1000 + GetParam());
  auto g = random_general(2 + static_cast<std::int32_t>(rng.below(30)),
                          static_cast<std::int32_t>(rng.below(120)),
                          1 + static_cast<Cap>(rng.below(20)), rng);
  const Cap reference = solve_ff_bfs(g.net, g.source, g.sink);
  EXPECT_EQ(solve_ff_dfs(g.net, g.source, g.sink), reference);
  EXPECT_EQ(solve_pr(g.net, g.source, g.sink), reference);
  EXPECT_EQ(solve_pr_plain(g.net, g.source, g.sink), reference);
  EXPECT_TRUE(analysis::check_flow_invariants(g.net, g.source, g.sink).ok());
  // Max-flow equals min-cut on the final (push-relabel) flow.
  const Cut cut = residual_min_cut(g.net, g.source);
  EXPECT_EQ(cut.capacity, reference);
  EXPECT_FALSE(cut.source_side[g.sink]);
}

TEST_P(EnginesAgree, OnRandomBipartiteNetworks) {
  Rng rng(2000 + GetParam());
  const auto left = 1 + static_cast<std::int32_t>(rng.below(40));
  const auto right = 1 + static_cast<std::int32_t>(rng.below(12));
  const auto degree =
      1 + static_cast<std::int32_t>(rng.below(std::min(right, 3)));
  auto g = random_bipartite(left, right, degree,
                            1 + static_cast<Cap>(rng.below(5)), rng);
  const Cap reference = solve_ff_bfs(g.net, g.source, g.sink);
  EXPECT_EQ(solve_pr(g.net, g.source, g.sink), reference);
  EXPECT_EQ(residual_min_cut(g.net, g.source).capacity, reference);
}

TEST_P(EnginesAgree, OnLayeredNetworks) {
  Rng rng(3000 + GetParam());
  auto g = layered_network(2 + static_cast<std::int32_t>(rng.below(5)),
                           1 + static_cast<std::int32_t>(rng.below(8)),
                           1 + static_cast<Cap>(rng.below(9)), rng);
  const Cap reference = solve_ff_bfs(g.net, g.source, g.sink);
  EXPECT_EQ(solve_pr(g.net, g.source, g.sink), reference);
  EXPECT_EQ(solve_pr_plain(g.net, g.source, g.sink), reference);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, EnginesAgree, ::testing::Range(0, 25));

TEST(Checks, DecomposePathsCoversValue) {
  Vertex s, t;
  FlowNetwork net = clrs_network(s, t);
  PushRelabel(net, s, t).solve_from_zero();
  auto paths = decompose_paths(net, s, t);
  Cap sum = 0;
  for (const auto& p : paths) {
    sum += p.amount;
    ASSERT_FALSE(p.arcs.empty());
    EXPECT_EQ(net.tail(p.arcs.front()), s);
    EXPECT_EQ(net.head(p.arcs.back()), t);
    for (std::size_t i = 0; i + 1 < p.arcs.size(); ++i) {
      EXPECT_EQ(net.head(p.arcs[i]), net.tail(p.arcs[i + 1]));
    }
  }
  EXPECT_EQ(sum, 23);
}

TEST(Generators, BipartiteShape) {
  Rng rng(5);
  auto g = random_bipartite(10, 4, 2, 3, rng);
  EXPECT_EQ(g.net.num_vertices(), 16);
  // 10 source arcs + 20 replica arcs + 4 sink arcs
  EXPECT_EQ(g.net.num_edges(), 34);
}

TEST(Generators, RejectBadShapes) {
  Rng rng(5);
  EXPECT_THROW(random_bipartite(0, 4, 2, 3, rng), std::invalid_argument);
  EXPECT_THROW(random_bipartite(4, 4, 9, 3, rng), std::invalid_argument);
  EXPECT_THROW(random_general(1, 5, 3, rng), std::invalid_argument);
  EXPECT_THROW(layered_network(0, 5, 3, rng), std::invalid_argument);
}

TEST(FlowNetwork, AddVerticesGuardsInt32Overflow) {
  FlowNetwork net(2);
  // The guard must fire *before* any allocation is attempted.
  EXPECT_THROW(net.add_vertices(std::numeric_limits<Vertex>::max()),
               std::length_error);
  EXPECT_THROW(net.add_vertices(std::numeric_limits<Vertex>::max() - 1),
               std::length_error);
  EXPECT_EQ(net.num_vertices(), 2);  // unchanged after the throw
  net.add_vertices(3);
  EXPECT_EQ(net.num_vertices(), 5);
  EXPECT_THROW(net.add_vertices(std::numeric_limits<Vertex>::max() - 4),
               std::length_error);
}

TEST(FlowNetwork, ResetRebuildsInPlace) {
  Vertex s, t;
  FlowNetwork net = clrs_network(s, t);
  EXPECT_EQ(PushRelabel(net, s, t).solve_from_zero().value, 23);
  const std::size_t retained = net.retained_bytes();
  EXPECT_GT(retained, 0u);

  // reset() drops vertices, arcs, and flows but keeps the buffers.
  net.reset(4);
  EXPECT_EQ(net.num_vertices(), 4);
  EXPECT_EQ(net.num_arcs(), 0);
  EXPECT_EQ(net.num_edges(), 0);
  net.add_arc(0, 1, 5);
  net.add_arc(1, 3, 5);
  net.add_arc(0, 2, 7);
  net.add_arc(2, 3, 2);
  EXPECT_EQ(PushRelabel(net, 0, 3).solve_from_zero().value, 7);
  EXPECT_EQ(net.retained_bytes(), retained);  // no buffer was released

  // Same network again after another reset: identical rebuild.
  net.reset(4);
  net.add_arc(0, 1, 5);
  net.add_arc(1, 3, 5);
  net.add_arc(0, 2, 7);
  net.add_arc(2, 3, 2);
  EXPECT_EQ(FordFulkerson(net, 0, 3).solve_from_zero().value, 7);
}

TEST(FlowNetwork, CsrAdjacencyPreservesInsertionOrder) {
  // out_arcs(v) must list arcs in insertion order (forward and reverse
  // slots alike) — the engines' determinism depends on it.
  FlowNetwork net(4);
  const ArcId a01 = net.add_arc(0, 1, 1);
  const ArcId a02 = net.add_arc(0, 2, 2);
  const ArcId a12 = net.add_arc(1, 2, 3);
  const ArcId a13 = net.add_arc(1, 3, 4);
  const auto out0 = net.out_arcs(0);
  ASSERT_EQ(out0.size(), 2u);
  EXPECT_EQ(out0[0], a01);
  EXPECT_EQ(out0[1], a02);
  const auto out1 = net.out_arcs(1);  // reverse of a01, then a12, a13
  ASSERT_EQ(out1.size(), 3u);
  EXPECT_EQ(out1[0], net.reverse(a01));
  EXPECT_EQ(out1[1], a12);
  EXPECT_EQ(out1[2], a13);
  // Adding an arc invalidates and lazily rebuilds the CSR cache.
  const ArcId a23 = net.add_arc(2, 3, 5);
  const auto out2 = net.out_arcs(2);
  ASSERT_EQ(out2.size(), 3u);
  EXPECT_EQ(out2[0], net.reverse(a02));
  EXPECT_EQ(out2[1], net.reverse(a12));
  EXPECT_EQ(out2[2], a23);
  EXPECT_EQ(net.out_degree(2), 3);
}

}  // namespace
}  // namespace repflow::graph
