// Tests for the replicated retrieval-cost analysis and cross-run
// determinism guarantees.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/solve.h"
#include "decluster/retrieval_cost.h"
#include "decluster/schemes.h"
#include "decluster/threshold.h"
#include "support/rng.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

namespace repflow {
namespace {

TEST(RetrievalCost, KnownSmallCases) {
  // Orthogonal 4x4, single-site pair mapping would collide; use per-site.
  const auto rep = decluster::make_orthogonal(
      4, decluster::SiteMapping::kCopyPerSite);
  // One bucket: one access.
  EXPECT_EQ(decluster::optimal_retrieval_cost(rep, {0}), 1);
  EXPECT_EQ(decluster::replicated_additive_error(rep, {0}), 0);
  // Full grid on 8 disks: 16 buckets -> at least 2 accesses each.
  std::vector<decluster::BucketId> all;
  for (int b = 0; b < 16; ++b) all.push_back(b);
  const auto cost = decluster::optimal_retrieval_cost(rep, all);
  EXPECT_GE(cost, 2);
  EXPECT_LE(cost, 4);
  EXPECT_EQ(decluster::optimal_retrieval_cost(rep, {}), 0);
}

TEST(RetrievalCost, ReplicationNeverHurts) {
  // The replicated optimal cost is never above the single-copy max load.
  Rng rng(5);
  const std::int32_t n = 5;
  const auto rep =
      decluster::make_orthogonal(n, decluster::SiteMapping::kCopyPerSite);
  const workload::QueryGenerator gen(n, workload::QueryType::kRange,
                                     workload::LoadKind::kLoad2);
  for (int t = 0; t < 10; ++t) {
    const auto query = gen.next(rng);
    std::vector<std::int32_t> single_copy_load(n, 0);
    for (auto b : query) {
      ++single_copy_load[rep.copy(0).disk_of(b / n, b % n)];
    }
    const auto max_single =
        *std::max_element(single_copy_load.begin(), single_copy_load.end());
    EXPECT_LE(decluster::optimal_retrieval_cost(rep, query), max_single);
  }
}

TEST(RetrievalCost, ProfileCountsAndBounds) {
  const auto rep = decluster::make_orthogonal(
      4, decluster::SiteMapping::kCopyPerSite);
  const auto profile = decluster::replicated_error_profile(rep);
  EXPECT_EQ(profile.queries, 4 * 4 * 4 * 4);
  EXPECT_GE(profile.worst, 0);
  // RDA-style theory: replicated schemes keep the error tiny; orthogonal
  // pairs on 2N disks should be near-perfect at this size.
  EXPECT_LE(profile.worst, 1);
  EXPECT_GT(profile.zero_error_queries, profile.queries / 2);
}

TEST(RetrievalCost, OrthogonalBeatsOrMatchesDependentOnRangeQueries) {
  const auto orth = decluster::make_orthogonal(
      5, decluster::SiteMapping::kCopyPerSite);
  const auto dep = decluster::make_dependent(
      5, decluster::SiteMapping::kCopyPerSite);
  const auto orth_profile = decluster::replicated_error_profile(orth);
  const auto dep_profile = decluster::replicated_error_profile(dep);
  EXPECT_LE(orth_profile.mean, dep_profile.mean + 0.05);
}

// Determinism: identical seeds must reproduce identical workloads, systems,
// allocations, and solver outputs bit-for-bit.
TEST(Determinism, FullPipelineIsSeedStable) {
  auto run_once = [](std::uint64_t seed) {
    Rng rng(seed);
    const auto rep = decluster::make_rda(
        6, 2, decluster::SiteMapping::kCopyPerSite, rng);
    const auto sys = workload::make_experiment_system(5, 6, rng);
    const workload::QueryGenerator gen(6, workload::QueryType::kArbitrary,
                                       workload::LoadKind::kLoad2);
    std::vector<double> responses;
    for (int i = 0; i < 5; ++i) {
      const auto problem = core::build_problem(rep, gen.next(rng), sys);
      responses.push_back(
          core::solve(problem, core::SolverKind::kPushRelabelBinary)
              .response_time_ms);
    }
    return responses;
  };
  const auto a = run_once(123);
  const auto b = run_once(123);
  const auto c = run_once(124);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Determinism, ThresholdSearchIsSeedStable) {
  const auto a = decluster::threshold_declustering(5, {10, 16, 9});
  const auto b = decluster::threshold_declustering(5, {10, 16, 9});
  EXPECT_EQ(a.worst_error, b.worst_error);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(a.allocation.disk_of(i, j), b.allocation.disk_of(i, j));
    }
  }
}

TEST(Determinism, ParallelSolverIsValueDeterministic) {
  // Thread interleaving may vary, but the optimal value never does.
  Rng rng(99);
  const auto rep = decluster::make_orthogonal(
      8, decluster::SiteMapping::kCopyPerSite);
  const auto sys = workload::make_experiment_system(5, 8, rng);
  const workload::QueryGenerator gen(8, workload::QueryType::kArbitrary,
                                     workload::LoadKind::kLoad1);
  const auto problem = core::build_problem(rep, gen.next(rng), sys);
  const double first =
      core::solve(problem, core::SolverKind::kParallelPushRelabelBinary, 4)
          .response_time_ms;
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(
        core::solve(problem, core::SolverKind::kParallelPushRelabelBinary, 4)
            .response_time_ms,
        first);
  }
}

}  // namespace
}  // namespace repflow
