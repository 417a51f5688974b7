// Paper-fidelity tests: closed-form expectations from Section VI verified
// statistically, and the flow-conservation equivalence at the heart of the
// integrated algorithms verified on randomized capacity schedules.
#include <gtest/gtest.h>

#include "analysis/flow_invariants.h"
#include "graph/ford_fulkerson.h"
#include "graph/generators.h"
#include "graph/push_relabel.h"
#include "support/rng.h"
#include "workload/query_load.h"

namespace repflow {
namespace {

// Section VI-C closed forms: expected bucket counts per load and type.
TEST(LoadFidelity, Load1RangeExpectedSizeIsQuarterGrid) {
  const std::int32_t n = 24;
  workload::QueryGenerator gen(n, workload::QueryType::kRange,
                               workload::LoadKind::kLoad1);
  Rng rng(101);
  double sum = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(gen.next(rng).size());
  }
  // E = ((N+1)/2)^2 = N^2/4 + O(N); paper: N^2/4 + O(1/N) per unit square.
  const double expected = (n + 1) * (n + 1) / 4.0;
  EXPECT_NEAR(sum / trials, expected, expected * 0.06);
}

TEST(LoadFidelity, Load1ArbitraryExpectedSizeIsHalfGrid) {
  const std::int32_t n = 20;
  workload::QueryGenerator gen(n, workload::QueryType::kArbitrary,
                               workload::LoadKind::kLoad1);
  Rng rng(102);
  double sum = 0;
  const int trials = 600;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(gen.next(rng).size());
  }
  EXPECT_NEAR(sum / trials, n * n / 2.0, n * n / 2.0 * 0.05);
}

TEST(LoadFidelity, Load2ExpectedSizeIsHalfGrid) {
  const std::int32_t n = 16;
  workload::QueryGenerator gen(n, workload::QueryType::kArbitrary,
                               workload::LoadKind::kLoad2);
  Rng rng(103);
  double sum = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(gen.next(rng).size());
  }
  // Paper: E[|Q|] = N^2/2 for load 2.
  EXPECT_NEAR(sum / trials, n * n / 2.0, n * n / 2.0 * 0.06);
}

TEST(LoadFidelity, Load3ExpectedSizeIsThreeHalvesN) {
  const std::int32_t n = 20;
  workload::QueryGenerator gen(n, workload::QueryType::kArbitrary,
                               workload::LoadKind::kLoad3);
  Rng rng(104);
  double sum = 0;
  const int trials = 8000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(gen.next(rng).size());
  }
  // Paper: E[|Q|] = 3N/2 for load 3 (small queries dominate).
  EXPECT_NEAR(sum / trials, 1.5 * n, 1.5 * n * 0.08);
}

// The integrated claim itself: resuming push-relabel across an arbitrary
// monotone capacity schedule reaches exactly the same max-flow value as a
// from-scratch solve at every step.
class IntegratedEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(IntegratedEquivalence, ResumeEqualsFromScratchOnRandomSchedules) {
  Rng rng(40000 + GetParam());
  // Random bipartite network with all sink capacities starting at zero.
  const auto left = 5 + static_cast<std::int32_t>(rng.below(40));
  const auto right = 2 + static_cast<std::int32_t>(rng.below(10));
  auto g = graph::random_bipartite(left, right, 2, 0, rng);
  // Collect the sink arcs (forward arcs into the sink).
  std::vector<graph::ArcId> sink_arcs;
  for (graph::ArcId a = 0; a < g.net.num_arcs(); a += 2) {
    if (g.net.head(a) == g.sink) sink_arcs.push_back(a);
  }

  graph::PushRelabel integrated(g.net, g.source, g.sink);
  integrated.resume();  // zero-capacity warm-up (flow 0)

  for (int step = 0; step < 12; ++step) {
    // Randomly bump 1..3 sink capacities.
    const auto bumps = 1 + rng.below(3);
    for (std::uint64_t b = 0; b < bumps; ++b) {
      const auto a = sink_arcs[rng.below(sink_arcs.size())];
      g.net.set_capacity(a, g.net.capacity(a) + 1 +
                                static_cast<graph::Cap>(rng.below(3)));
    }
    const graph::Cap via_resume = integrated.resume();

    // From-scratch reference on a copy with the same capacities.
    graph::FlowNetwork fresh = g.net;
    fresh.clear_flow();
    graph::FordFulkerson reference(fresh, g.source, g.sink,
                                   graph::SearchOrder::kBfs);
    EXPECT_EQ(via_resume, reference.solve_from_zero().value)
        << "step " << step;
    const auto check = analysis::check_flow_invariants(g.net, g.source, g.sink);
    EXPECT_TRUE(check.ok()) << check.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, IntegratedEquivalence,
                         ::testing::Range(0, 15));

// The same equivalence for the Ford-Fulkerson engine (Algorithms 1/2 and
// the FF-binary solver rely on it): run() from conserved flows equals a
// from-scratch solve after every capacity increase.
TEST_P(IntegratedEquivalence, FordFulkersonRunEqualsFromScratch) {
  Rng rng(50000 + GetParam());
  const auto left = 5 + static_cast<std::int32_t>(rng.below(30));
  const auto right = 2 + static_cast<std::int32_t>(rng.below(8));
  auto g = graph::random_bipartite(left, right, 2, 0, rng);
  std::vector<graph::ArcId> sink_arcs;
  for (graph::ArcId a = 0; a < g.net.num_arcs(); a += 2) {
    if (g.net.head(a) == g.sink) sink_arcs.push_back(a);
  }
  graph::FordFulkerson integrated(g.net, g.source, g.sink,
                                  graph::SearchOrder::kDfs);
  graph::Cap running_total = integrated.run();
  for (int step = 0; step < 10; ++step) {
    const auto a = sink_arcs[rng.below(sink_arcs.size())];
    g.net.set_capacity(a, g.net.capacity(a) + 1 +
                              static_cast<graph::Cap>(rng.below(2)));
    running_total += integrated.run();
    graph::FlowNetwork fresh = g.net;
    fresh.clear_flow();
    graph::FordFulkerson reference(fresh, g.source, g.sink,
                                   graph::SearchOrder::kBfs);
    EXPECT_EQ(running_total, reference.solve_from_zero().value)
        << "step " << step;
  }
}

// Snapshot/restore equivalence: restoring an earlier flow and re-resuming
// under larger capacities still reaches the true max flow.
TEST(IntegratedEquivalence, RestoreThenResumeIsExact) {
  Rng rng(555);
  auto g = graph::random_bipartite(30, 6, 2, 1, rng);
  std::vector<graph::ArcId> sink_arcs;
  for (graph::ArcId a = 0; a < g.net.num_arcs(); a += 2) {
    if (g.net.head(a) == g.sink) sink_arcs.push_back(a);
  }
  graph::PushRelabel engine(g.net, g.source, g.sink);
  const graph::Cap v1 = engine.solve_from_zero().value;
  const auto snapshot = g.net.save_flows();

  // Grow capacities, resume, then roll back and replay.
  for (auto a : sink_arcs) g.net.set_capacity(a, 5);
  const graph::Cap v2 = engine.resume();
  EXPECT_GE(v2, v1);

  g.net.restore_flows(snapshot);
  engine.reset_excess_after_restore(v1);
  const graph::Cap v2_replayed = engine.resume();
  EXPECT_EQ(v2_replayed, v2);
}

}  // namespace
}  // namespace repflow
