// Regression suite for the FlowNetwork reset()/CSR seam.
//
// The CSR adjacency cache is rebuilt lazily inside const out_arcs(), which
// means a freshly reset() network carries stale cache contents plus a dirty
// flag until some reader touches it.  Two hazards follow:
//   1. correctness: any interleaving of reset/add_arc/read must always
//      resolve to the *new* topology, never serve a stale span;
//   2. concurrency: a network handed to parallel readers while still dirty
//      makes the first out_arcs() call a write — a data race.
// finalize_adjacency() closes (2) at the builder seams; this file pins both
// behaviours with the analysis-layer CSR checker.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/flow_invariants.h"
#include "core/network.h"
#include "core/schedule.h"
#include "core/solver_pool.h"
#include "graph/flow_network.h"
#include "graph/generators.h"
#include "graph/push_relabel.h"
#include "support/rng.h"

namespace repflow {
namespace {

using graph::FlowNetwork;
using graph::Vertex;

void expect_csr_clean(const FlowNetwork& net, const char* where) {
  const auto report = analysis::check_csr_adjacency(net);
  EXPECT_TRUE(report.ok()) << where << ": " << report.to_string();
}

TEST(NetworkReset, ResetMarksAdjacencyDirtyUntilFinalized) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 1);
  net.add_arc(1, 2, 1);
  net.finalize_adjacency();
  EXPECT_FALSE(net.adjacency_dirty());
  net.reset(2);
  EXPECT_TRUE(net.adjacency_dirty());
  net.add_arc(0, 1, 1);
  EXPECT_TRUE(net.adjacency_dirty());
  net.finalize_adjacency();
  EXPECT_FALSE(net.adjacency_dirty());
  expect_csr_clean(net, "after finalize");
}

TEST(NetworkReset, ShrinkingResetServesNewTopologyNotStaleCache) {
  FlowNetwork net(6);
  for (Vertex v = 0; v + 1 < 6; ++v) net.add_arc(v, v + 1, 2);
  // Materialize the CSR for the big topology, then rebind to a smaller one.
  EXPECT_EQ(net.out_arcs(0).size(), 1u);
  net.reset(3);
  net.add_arc(2, 0, 7);
  expect_csr_clean(net, "after shrink");
  // Vertex 0's only arc slot is now the *reverse* of 2->0.
  ASSERT_EQ(net.out_arcs(0).size(), 1u);
  EXPECT_EQ(net.head(net.out_arcs(0)[0]), 2);
  EXPECT_EQ(net.out_arcs(1).size(), 0u);
  ASSERT_EQ(net.out_arcs(2).size(), 1u);
  EXPECT_EQ(net.head(net.out_arcs(2)[0]), 0);
}

TEST(NetworkReset, GrowingResetAfterReadIsConsistent) {
  FlowNetwork net(2);
  net.add_arc(0, 1, 1);
  EXPECT_EQ(net.out_arcs(0).size(), 1u);  // materialize small CSR
  net.reset(8);
  for (Vertex v = 0; v + 1 < 8; ++v) net.add_arc(v, v + 1, 1);
  expect_csr_clean(net, "after grow");
  EXPECT_EQ(net.out_arcs(7).size(), 1u);  // reverse slot of 6->7
}

TEST(NetworkReset, InterleavedResetAddArcSolveKeepsIntegrity) {
  Rng rng(411);
  FlowNetwork net;
  graph::MaxflowWorkspace workspace;
  for (int round = 0; round < 40; ++round) {
    // Alternate footprints so the reset path exercises both the shrink and
    // the grow direction of every retained buffer.
    const auto n = static_cast<std::int32_t>(3 + rng.below(12));
    net.reset(n + 2);
    const Vertex source = n;
    const Vertex sink = n + 1;
    for (Vertex v = 0; v < n; ++v) {
      net.add_arc(source, v, 1 + static_cast<graph::Cap>(rng.below(3)));
      net.add_arc(v, sink, 1 + static_cast<graph::Cap>(rng.below(3)));
    }
    const auto extra = 1 + rng.below(static_cast<std::uint64_t>(2 * n));
    for (std::uint64_t e = 0; e < extra; ++e) {
      const auto u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
      auto w = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
      if (u == w) w = (w + 1) % n;
      net.add_arc(u, w, 1 + static_cast<graph::Cap>(rng.below(4)));
      // Reads interleaved with edits must see each intermediate topology.
      if (e == 0) expect_csr_clean(net, "mid-edit");
    }
    net.finalize_adjacency();
    expect_csr_clean(net, "pre-solve");
    graph::PushRelabel engine(net, source, sink, graph::PushRelabelOptions{},
                              &workspace);
    const auto result = engine.solve_from_zero();
    EXPECT_GE(result.value, 0);
    expect_csr_clean(net, "post-solve");
    const auto flow_report = analysis::check_flow_invariants(net, source, sink);
    EXPECT_TRUE(flow_report.ok()) << flow_report.to_string();
  }
}

TEST(NetworkReset, RetrievalNetworkRebuildFinalizesAdjacency) {
  core::RetrievalProblem small;
  small.system.num_sites = 1;
  small.system.disks_per_site = 2;
  small.system.cost_ms = {1.0, 1.0};
  small.system.delay_ms = {0.0, 0.0};
  small.system.init_load_ms = {0.0, 0.0};
  small.system.model = {"A", "A"};
  small.replicas = {{0, 1}, {1}};
  small.validate();

  core::RetrievalProblem large = small;
  large.system.disks_per_site = 4;
  large.system.cost_ms.assign(4, 1.0);
  large.system.delay_ms.assign(4, 0.0);
  large.system.init_load_ms.assign(4, 0.0);
  large.system.model.assign(4, "A");
  large.replicas = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}};
  large.validate();

  core::RetrievalNetwork network(small);
  // The builder seam must hand out a finalized network: concurrent readers
  // (parallel engine copy_in, stream workers) never trigger the lazy
  // rebuild through a const reference.
  EXPECT_FALSE(network.net().adjacency_dirty());
  expect_csr_clean(network.net(), "first build");

  // Rebind across footprints in both directions, exactly the pooled-solver
  // reuse pattern that left the dirty flag observable across rebinds.
  const core::RetrievalProblem* cycle[] = {&large, &small, &large};
  for (const auto* problem : cycle) {
    network.rebuild(*problem);
    EXPECT_FALSE(network.net().adjacency_dirty());
    expect_csr_clean(network.net(), "after rebuild");
    network.set_capacities_for_time(100.0);
    graph::PushRelabel engine(network.net(), network.source(),
                              network.sink());
    engine.solve_from_zero();
    EXPECT_EQ(network.flow_value(), problem->query_size());
    const auto schedule = core::extract_schedule(network);
    EXPECT_TRUE(core::check_schedule(*problem, schedule).empty());
  }
}

TEST(NetworkReset, GeneratorsHandOutFinalizedNetworks) {
  Rng rng(98);
  auto bipartite = graph::random_bipartite(6, 4, 2, 3, rng);
  EXPECT_FALSE(bipartite.net.adjacency_dirty());
  expect_csr_clean(bipartite.net, "bipartite");
  auto general = graph::random_general(10, 12, 5, rng);
  EXPECT_FALSE(general.net.adjacency_dirty());
  expect_csr_clean(general.net, "general");
  auto layered = graph::layered_network(3, 4, 5, rng);
  EXPECT_FALSE(layered.net.adjacency_dirty());
  expect_csr_clean(layered.net, "layered");
}

}  // namespace
}  // namespace repflow
