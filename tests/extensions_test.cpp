// Tests for the extension modules: threshold/golden-ratio declustering,
// multi-copy orthogonal families, and the inter-query batch solver.
#include <gtest/gtest.h>

#include <numeric>

#include "core/batch.h"
#include "core/reference.h"
#include "core/solve.h"
#include "decluster/analysis.h"
#include "decluster/schemes.h"
#include "decluster/threshold.h"
#include "support/rng.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

namespace repflow {
namespace {

TEST(ThresholdDeclustering, NeverWorseThanPeriodicSeed) {
  for (std::int32_t n : {4, 5, 6, 8}) {
    const auto seed_err = decluster::worst_case_additive_error(
        decluster::periodic_allocation(
            n, 1, decluster::best_periodic_coefficient(n)));
    const auto result = decluster::threshold_declustering(n);
    EXPECT_LE(result.worst_error, seed_err) << "n=" << n;
    EXPECT_TRUE(result.allocation.is_balanced());
    EXPECT_EQ(result.worst_error,
              decluster::worst_case_additive_error(result.allocation));
  }
}

TEST(GoldenRatio, BalancedAndCompetitive) {
  for (std::int32_t n : {5, 8, 13, 21}) {
    const auto alloc = decluster::golden_ratio_allocation(n);
    EXPECT_TRUE(alloc.is_balanced()) << "n=" << n;
  }
  // For Fibonacci-adjacent sizes golden-ratio declustering is known to be
  // strong; check it is at least as good as naive diagonal striping.
  const auto golden_err = decluster::worst_case_additive_error(
      decluster::golden_ratio_allocation(13));
  const auto naive_err = decluster::worst_case_additive_error(
      decluster::periodic_allocation(13, 1, 1));
  EXPECT_LE(golden_err, naive_err);
}

TEST(OrthogonalPairFrom, PreservesFirstCopyAndIsOrthogonal) {
  const auto first = decluster::golden_ratio_allocation(7);
  const auto rep = decluster::orthogonal_pair_from(
      first, decluster::SiteMapping::kCopyPerSite);
  EXPECT_TRUE(rep.is_orthogonal());
  EXPECT_TRUE(rep.copy(1).is_balanced());
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 7; ++j) {
      EXPECT_EQ(rep.copy(0).disk_of(i, j), first.disk_of(i, j));
    }
  }
}

TEST(OrthogonalPairFrom, RejectsUnbalancedFirstCopy) {
  decluster::Allocation skewed(3, 3);  // all buckets on disk 0
  EXPECT_THROW(decluster::orthogonal_pair_from(
                   skewed, decluster::SiteMapping::kCopyPerSite),
               std::invalid_argument);
}

TEST(OrthogonalThreshold, SolvesLikeLinearOrthogonal) {
  // Both orthogonal constructions must yield valid problems with the same
  // optimal-value *existence* guarantees; values differ per allocation.
  Rng rng(31);
  const std::int32_t n = 6;
  const auto rep = decluster::make_orthogonal_threshold(
      n, decluster::SiteMapping::kCopyPerSite);
  EXPECT_TRUE(rep.is_orthogonal());
  const auto sys = workload::make_experiment_system(5, n, rng);
  const workload::QueryGenerator gen(n, workload::QueryType::kRange,
                                     workload::LoadKind::kLoad2);
  for (int i = 0; i < 3; ++i) {
    const auto problem = core::build_problem(rep, gen.next(rng), sys);
    const double optimum =
        core::ReferenceSolver(problem).solve().response_time_ms;
    EXPECT_NEAR(core::solve(problem, core::SolverKind::kPushRelabelBinary)
                    .response_time_ms,
                optimum, 1e-6);
  }
}

TEST(OrthogonalMulti, PairwiseOrthogonalForPrimeN) {
  const std::int32_t n = 7;
  const auto rep = decluster::make_orthogonal_multi(
      n, 3, decluster::SiteMapping::kCopyPerSite);
  EXPECT_EQ(rep.copies(), 3);
  EXPECT_EQ(rep.total_disks(), 21);
  // Check pairwise orthogonality by hand for each copy pair.
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) {
      std::set<std::pair<int, int>> pairs;
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          pairs.emplace(rep.copy(a).disk_of(i, j), rep.copy(b).disk_of(i, j));
        }
      }
      EXPECT_EQ(pairs.size(), static_cast<std::size_t>(n * n))
          << "copies " << a << "," << b;
    }
  }
}

TEST(OrthogonalMulti, RejectsNonCoprimeConfigurations) {
  EXPECT_THROW(decluster::make_orthogonal_multi(
                   6, 3, decluster::SiteMapping::kCopyPerSite),
               std::invalid_argument);  // gcd(2, 6) != 1
  EXPECT_THROW(decluster::make_orthogonal_multi(
                   5, 1, decluster::SiteMapping::kCopyPerSite),
               std::invalid_argument);
}

TEST(OrthogonalMulti, ThreeCopyRetrievalBeatsTwoCopy) {
  // More copies can only improve (or preserve) the optimum.
  Rng rng(77);
  const std::int32_t n = 7;
  const auto rep2 = decluster::make_orthogonal(
      n, decluster::SiteMapping::kCopyPerSite);
  const auto rep3 = decluster::make_orthogonal_multi(
      n, 3, decluster::SiteMapping::kCopyPerSite);
  // Homogeneous 2- and 3-site systems with identical disks.
  auto make_sys = [&](std::int32_t sites) {
    workload::SystemConfig sys;
    sys.num_sites = sites;
    sys.disks_per_site = n;
    sys.cost_ms.assign(sites * n, 6.1);
    sys.delay_ms.assign(sites * n, 0.0);
    sys.init_load_ms.assign(sites * n, 0.0);
    sys.model.assign(sites * n, "Cheetah");
    return sys;
  };
  const workload::QueryGenerator gen(n, workload::QueryType::kRange,
                                     workload::LoadKind::kLoad1);
  for (int i = 0; i < 5; ++i) {
    const auto query = gen.next(rng);
    const double two =
        core::solve(core::build_problem(rep2, query, make_sys(2)),
                    core::SolverKind::kPushRelabelBinary)
            .response_time_ms;
    const double three =
        core::solve(core::build_problem(rep3, query, make_sys(3)),
                    core::SolverKind::kPushRelabelBinary)
            .response_time_ms;
    EXPECT_LE(three, two + 1e-9);
  }
}

TEST(BatchSolve, MatchesSequentialResults) {
  Rng rng(88);
  const std::int32_t n = 8;
  const auto rep =
      decluster::make_orthogonal(n, decluster::SiteMapping::kCopyPerSite);
  const auto sys = workload::make_experiment_system(5, n, rng);
  const workload::QueryGenerator gen(n, workload::QueryType::kArbitrary,
                                     workload::LoadKind::kLoad2);
  std::vector<core::RetrievalProblem> problems;
  for (int i = 0; i < 12; ++i) {
    problems.push_back(core::build_problem(rep, gen.next(rng), sys));
  }
  std::vector<double> expected;
  for (const auto& p : problems) {
    expected.push_back(core::solve(p, core::SolverKind::kPushRelabelBinary)
                           .response_time_ms);
  }
  for (int threads : {1, 2, 4}) {
    core::BatchOptions options;
    options.threads = threads;
    const auto results = core::solve_batch(problems, options);
    ASSERT_EQ(results.size(), problems.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_NEAR(results[i].response_time_ms, expected[i], 1e-9)
          << "threads " << threads << " query " << i;
    }
  }
}

TEST(BatchSolve, PropagatesErrorsAndValidatesOptions) {
  EXPECT_THROW(core::solve_batch({}, {.threads = 0}), std::invalid_argument);
  // A problem that makes solvers throw: basic solver on non-basic system.
  core::RetrievalProblem bad;
  bad.system.num_sites = 1;
  bad.system.disks_per_site = 2;
  bad.system.cost_ms = {1.0, 2.0};
  bad.system.delay_ms = {0.0, 0.0};
  bad.system.init_load_ms = {0.0, 0.0};
  bad.system.model = {"a", "b"};
  bad.replicas = {{0, 1}};
  core::BatchOptions options;
  options.solver = core::SolverKind::kFordFulkersonBasic;  // requires basic
  EXPECT_THROW(core::solve_batch({bad}, options), std::invalid_argument);
}

}  // namespace
}  // namespace repflow
