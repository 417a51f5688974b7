// Stress and configuration-matrix tests.
//
// These push the engines through both heuristic configurations and through
// larger instances than the unit tests, checking the invariants that must
// hold regardless of configuration: identical max-flow values, identical
// optimal response times, saturated min cuts, and unit path decompositions.
#include <gtest/gtest.h>

#include "analysis/flow_invariants.h"
#include "core/push_relabel_binary.h"
#include "core/reference.h"
#include "core/solve.h"
#include "decluster/schemes.h"
#include "graph/checks.h"
#include "graph/ford_fulkerson.h"
#include "graph/generators.h"
#include "graph/push_relabel.h"
#include "support/rng.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

namespace repflow {
namespace {

using graph::Cap;
using graph::HeightInit;

// Both push-relabel configurations (the paper's zero heights, and exact
// heights with global relabeling and the gap heuristic) agree on random
// networks.
class PushRelabelOptionMatrix : public ::testing::TestWithParam<HeightInit> {};

TEST_P(PushRelabelOptionMatrix, MatchesReferenceOnRandomNetworks) {
  const HeightInit init = GetParam();
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 10; ++trial) {
    auto g = graph::random_general(
        2 + static_cast<std::int32_t>(rng.below(25)),
        static_cast<std::int32_t>(rng.below(100)),
        1 + static_cast<Cap>(rng.below(15)), rng);
    graph::FlowNetwork reference_net = g.net;
    graph::FordFulkerson ek(reference_net, g.source, g.sink,
                            graph::SearchOrder::kBfs);
    const Cap expected = ek.solve_from_zero().value;

    graph::PushRelabel engine(g.net, g.source, g.sink, init);
    EXPECT_EQ(engine.solve_from_zero().value, expected) << "trial " << trial;
    EXPECT_TRUE(analysis::check_flow_invariants(g.net, g.source, g.sink).ok());

    // The residual min cut is saturated: every crossing arc carries flow
    // equal to its capacity.
    const auto cut = graph::residual_min_cut(g.net, g.source);
    EXPECT_EQ(cut.capacity, expected);
    for (graph::ArcId a : cut.crossing_arcs) {
      EXPECT_EQ(g.net.flow(a), g.net.capacity(a));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PushRelabelOptionMatrix,
    ::testing::Values(HeightInit::kZero, HeightInit::kGlobalRelabel),
    [](const ::testing::TestParamInfo<HeightInit>& info) {
      return std::string(info.param == HeightInit::kZero
                             ? "ZeroInitNoGapNoGlobal"
                             : "ExactInitGapGlobal");
    });

// Algorithm 6 with either engine configuration still finds the optimum.
TEST(StressSolvers, BinarySolverUnderAllEngineConfigs) {
  Rng rng(0xBEEF);
  const std::int32_t n = 10;
  const auto rep = decluster::make_orthogonal(
      n, decluster::SiteMapping::kCopyPerSite);
  const auto sys = workload::make_experiment_system(5, n, rng);
  const workload::QueryGenerator gen(n, workload::QueryType::kArbitrary,
                                     workload::LoadKind::kLoad2);
  for (int trial = 0; trial < 5; ++trial) {
    const auto problem = core::build_problem(rep, gen.next(rng), sys);
    const double optimum =
        core::ReferenceSolver(problem).solve().response_time_ms;
    for (auto init : {HeightInit::kZero, HeightInit::kGlobalRelabel}) {
      core::PushRelabelBinarySolver solver(init);
      core::SolveResult result;
      solver.solve_into(problem, result);
      EXPECT_NEAR(result.response_time_ms, optimum, 1e-6);
    }
  }
}

// Larger-N stress: the full catalog stays consistent at N = 24 (1152-vertex
// networks with |Q| up to ~570) across all experiments.
class LargeInstance : public ::testing::TestWithParam<int> {};

TEST_P(LargeInstance, CatalogConsistencyAtScale) {
  const int experiment = GetParam();
  Rng rng(0xFEED + static_cast<std::uint64_t>(experiment));
  const std::int32_t n = 24;
  const auto rep = decluster::make_scheme(
      static_cast<decluster::Scheme>(rng.below(3)), n,
      decluster::SiteMapping::kCopyPerSite, rng);
  const auto sys = workload::make_experiment_system(experiment, n, rng);
  const workload::QueryGenerator gen(n, workload::QueryType::kArbitrary,
                                     workload::LoadKind::kLoad2);
  const auto problem = core::build_problem(rep, gen.next(rng), sys);
  const double bb =
      core::solve(problem, core::SolverKind::kBlackBoxBinary).response_time_ms;
  EXPECT_NEAR(core::solve(problem, core::SolverKind::kPushRelabelBinary)
                  .response_time_ms,
              bb, 1e-6);
  EXPECT_NEAR(core::solve(problem, core::SolverKind::kPushRelabelIncremental)
                  .response_time_ms,
              bb, 1e-6);
  EXPECT_NEAR(
      core::solve(problem, core::SolverKind::kParallelPushRelabelBinary, 3)
          .response_time_ms,
      bb, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllExperiments, LargeInstance,
                         ::testing::Range(1, 6));

// Degenerate shapes every component must survive.
TEST(StressEdgeCases, SingleBucketQuery) {
  Rng rng(11);
  const auto rep = decluster::make_orthogonal(
      4, decluster::SiteMapping::kCopyPerSite);
  const auto sys = workload::make_experiment_system(5, 4, rng);
  const auto problem = core::build_problem(rep, {5}, sys);
  const double expected =
      core::ReferenceSolver(problem).solve().response_time_ms;
  for (auto kind :
       {core::SolverKind::kFordFulkersonIncremental,
        core::SolverKind::kPushRelabelIncremental,
        core::SolverKind::kPushRelabelBinary,
        core::SolverKind::kBlackBoxBinary}) {
    EXPECT_NEAR(core::solve(problem, kind).response_time_ms, expected, 1e-6);
  }
}

TEST(StressEdgeCases, FullGridQuery) {
  Rng rng(12);
  const std::int32_t n = 6;
  const auto rep =
      decluster::make_orthogonal(n, decluster::SiteMapping::kCopyPerSite);
  const auto sys = workload::make_experiment_system(2, n, rng);
  workload::Query everything;
  for (std::int32_t b = 0; b < n * n; ++b) everything.push_back(b);
  const auto problem = core::build_problem(rep, everything, sys);
  const double bb =
      core::solve(problem, core::SolverKind::kBlackBoxBinary).response_time_ms;
  EXPECT_NEAR(core::solve(problem, core::SolverKind::kPushRelabelBinary)
                  .response_time_ms,
              bb, 1e-6);
}

TEST(StressEdgeCases, OneDiskGrid) {
  // N = 1: every bucket on the single disk of each site.
  const auto rep =
      decluster::make_orthogonal(1, decluster::SiteMapping::kCopyPerSite);
  workload::SystemConfig sys;
  sys.num_sites = 2;
  sys.disks_per_site = 1;
  sys.cost_ms = {5.0, 1.0};
  sys.delay_ms = {0.0, 2.0};
  sys.init_load_ms = {0.0, 0.0};
  sys.model = {"a", "b"};
  const auto problem = core::build_problem(rep, {0}, sys);
  // Optimum: the delayed fast disk (2 + 1 = 3) beats the slow one (5).
  EXPECT_NEAR(core::solve(problem, core::SolverKind::kPushRelabelBinary)
                  .response_time_ms,
              3.0, 1e-9);
}

TEST(StressEdgeCases, EqualCostTieHandling) {
  // Many disks with exactly equal completion candidates: tie incrementation
  // must not break optimality or termination.
  core::RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = 6;
  p.system.cost_ms.assign(6, 2.5);
  p.system.delay_ms.assign(6, 1.0);
  p.system.init_load_ms.assign(6, 0.5);
  p.system.model.assign(6, "tie");
  Rng rng(13);
  for (int b = 0; b < 18; ++b) {
    auto picks = rng.sample_without_replacement(6, 2);
    p.replicas.push_back({static_cast<std::int32_t>(picks[0]),
                          static_cast<std::int32_t>(picks[1])});
  }
  p.validate();
  const double expected =
      core::ReferenceSolver(p).solve().response_time_ms;
  EXPECT_NEAR(core::solve(p, core::SolverKind::kPushRelabelBinary)
                  .response_time_ms,
              expected, 1e-6);
  EXPECT_NEAR(core::solve(p, core::SolverKind::kFordFulkersonIncremental)
                  .response_time_ms,
              expected, 1e-6);
}

}  // namespace
}  // namespace repflow
