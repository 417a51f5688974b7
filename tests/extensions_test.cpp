// Tests for the inter-query batch solver: solve_batch matches one-at-a-time
// solves at every thread count, propagates a solver's error and rejects a
// zero thread count.  BatchSolver's error-path hardening (a throwing problem
// mid-batch, contended error slot) is in serving_test.cpp.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/batch.h"
#include "core/solve.h"
#include "decluster/schemes.h"
#include "support/rng.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

namespace repflow {
namespace {

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
  // The basic-only solver requires a basic system.
  options.policy =
      core::ExecutionPolicy::pinned(core::SolverKind::kFordFulkersonBasic);
  EXPECT_THROW(core::solve_batch({bad}, options), std::invalid_argument);
}

}  // namespace
}  // namespace repflow
