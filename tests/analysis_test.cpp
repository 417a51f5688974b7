// Cross-run determinism guarantees.
#include <gtest/gtest.h>

#include <vector>

#include "core/solve.h"
#include "decluster/schemes.h"
#include "support/rng.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

namespace repflow {
namespace {

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
