// Randomized differential testing of the solver catalog.
//
// Every solver is run against two independent oracles on small random
// instances: BruteForceSolver (exhaustive assignment enumeration, no flow
// machinery at all) and ReferenceSolver (candidate-sorting + from-zero
// Edmonds-Karp).  Agreement on the optimal response time plus a feasible,
// correctly-priced schedule (verified through the analysis checkers) is the
// strongest end-to-end evidence the integrated algorithms are right.
//
// Degenerate shapes get their own cases: empty query, single disk, all-equal
// costs, and capacity schedules that start at zero (a disk whose delay or
// initial load already exceeds small candidate times).
//
// The binary-scaling drivers (Algorithm 6's candidate search) are also held
// to their termination argument: at most ceil(log2 #candidates) + 1 resumes
// and no capacity steps, including on magnitudes (1e-300 next to 1e300)
// where a real-valued bisection never narrows below its resolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/schedule_invariants.h"
#include "core/binary_scaling.h"
#include "core/brute_force.h"
#include "core/reference.h"
#include "core/solve.h"
#include "support/rng.h"

namespace repflow {
namespace {

using core::RetrievalProblem;
using core::SolveResult;
using core::SolverKind;

// The whole catalog, including every kind added after this test was
// written: the list is generated from REPFLOW_SOLVER_CATALOG.
constexpr auto& kCatalog = core::kAllSolverKinds;

RetrievalProblem basic_shell(std::int32_t disks, std::int64_t buckets) {
  RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = disks;
  p.system.cost_ms.assign(static_cast<std::size_t>(disks), 1.0);
  p.system.delay_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.init_load_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.model.assign(static_cast<std::size_t>(disks), "A");
  p.replicas.resize(static_cast<std::size_t>(buckets));
  return p;
}

RetrievalProblem random_basic_problem(std::int32_t disks, std::int64_t buckets,
                                      Rng& rng) {
  RetrievalProblem p = basic_shell(disks, buckets);
  for (auto& replica_set : p.replicas) {
    const std::size_t copies =
        1 + rng.below(static_cast<std::uint64_t>(std::min(disks, 3)));
    replica_set.clear();
    while (replica_set.size() < copies) {
      const auto d = static_cast<core::DiskId>(
          rng.below(static_cast<std::uint64_t>(disks)));
      bool seen = false;
      for (core::DiskId have : replica_set) seen = seen || have == d;
      if (!seen) replica_set.push_back(d);
    }
  }
  p.validate();
  return p;
}

RetrievalProblem random_general_problem(std::int32_t disks,
                                        std::int64_t buckets, Rng& rng) {
  RetrievalProblem p = random_basic_problem(disks, buckets, rng);
  for (std::size_t d = 0; d < static_cast<std::size_t>(disks); ++d) {
    p.system.cost_ms[d] = 1.0 + static_cast<double>(rng.below(5));
    p.system.delay_ms[d] = static_cast<double>(rng.below(3));
    p.system.init_load_ms[d] = static_cast<double>(rng.below(4));
  }
  p.validate();
  return p;
}

/// Run `kind` and hold its result against the oracle response time and the
/// analysis-layer schedule checkers.  Every kind, the parallel Hong & He
/// engine included, must return the exact optimum (EXPECT_DOUBLE_EQ, not
/// an epsilon).
void expect_matches_oracle(const RetrievalProblem& problem, SolverKind kind,
                           double oracle_ms, const char* oracle_name) {
  const SolveResult result = core::solve(problem, kind, /*threads=*/2);
  EXPECT_DOUBLE_EQ(result.response_time_ms, oracle_ms)
      << core::solver_id(kind) << " vs " << oracle_name;
  const auto report = analysis::check_solve_result(problem, result);
  EXPECT_TRUE(report.ok()) << core::solver_id(kind) << ": "
                           << report.to_string();
}

// --- Algorithm 6 candidate search ---------------------------------------

/// ceil(log2 n) + 1 for the n completion times D_j + X_j + k*C_j
/// (k <= min(in-degree_j, |Q|)) inside Algorithm 6's window; 0 when the
/// query is empty.  Counted here from the definition, not by the driver.
std::int64_t probe_bound(const RetrievalProblem& problem) {
  const core::TimeBounds window = core::compute_time_bounds(problem);
  const auto degree = problem.disk_in_degrees();
  std::int64_t n = 0;
  for (core::DiskId d = 0; d < problem.total_disks(); ++d) {
    const std::int64_t k_max = std::min<std::int64_t>(
        degree[static_cast<std::size_t>(d)], problem.query_size());
    for (std::int64_t k = 1; k <= k_max; ++k) {
      const double t = problem.completion_time(d, k);
      if (t >= window.tmin && t <= window.tmax) ++n;
    }
  }
  if (n == 0) return 0;
  std::int64_t log2_ceil = 0;
  while ((std::int64_t{1} << log2_ceil) < n) ++log2_ceil;
  return log2_ceil + 1;
}

/// Every driver built on BinaryScalingDriver, labelled: alg6 on the
/// sequential and the parallel engine, black box, and the matching kernel.
std::vector<std::pair<std::string, SolveResult>> binary_scaling_results(
    const RetrievalProblem& problem) {
  std::vector<std::pair<std::string, SolveResult>> out;
  out.emplace_back("alg6",
                   core::solve(problem, SolverKind::kPushRelabelBinary));
  out.emplace_back("parallel/hong_he",
                   core::solve(problem, SolverKind::kParallelPushRelabelBinary,
                               /*threads=*/2));
  out.emplace_back("blackbox",
                   core::solve(problem, SolverKind::kBlackBoxBinary));
  out.emplace_back("matching",
                   core::solve(problem, SolverKind::kIntegratedMatching));
  return out;
}

/// Hold every binary-scaling driver to the optimum `oracle_ms`, a valid
/// schedule, the probe bound, and zero capacity steps.
void expect_exact_search(const RetrievalProblem& problem, double oracle_ms) {
  const std::int64_t bound = probe_bound(problem);
  for (const auto& [label, result] : binary_scaling_results(problem)) {
    EXPECT_DOUBLE_EQ(result.response_time_ms, oracle_ms) << label;
    const auto report = analysis::check_solve_result(problem, result);
    EXPECT_TRUE(report.ok()) << label << ": " << report.to_string();
    EXPECT_LE(result.binary_probes, bound) << label;
    EXPECT_EQ(result.capacity_steps, 0) << label;
  }
}

TEST(DifferentialSolve, CatalogAgreesWithBruteForceOnBasicInstances) {
  Rng rng(20260807);
  for (int trial = 0; trial < 25; ++trial) {
    const auto disks = static_cast<std::int32_t>(2 + rng.below(4));
    const auto buckets = static_cast<std::int64_t>(1 + rng.below(8));
    const RetrievalProblem problem =
        random_basic_problem(disks, buckets, rng);
    const SolveResult oracle = core::BruteForceSolver(problem).solve();
    EXPECT_TRUE(analysis::check_solve_result(problem, oracle).ok());
    for (SolverKind kind : kCatalog) {
      expect_matches_oracle(problem, kind, oracle.response_time_ms,
                            "brute_force");
    }
    expect_exact_search(problem, oracle.response_time_ms);
  }
}

TEST(DifferentialSolve, CatalogAgreesWithOraclesOnGeneralizedInstances) {
  Rng rng(777);
  for (int trial = 0; trial < 25; ++trial) {
    const auto disks = static_cast<std::int32_t>(2 + rng.below(4));
    const auto buckets = static_cast<std::int64_t>(1 + rng.below(8));
    const RetrievalProblem problem =
        random_general_problem(disks, buckets, rng);
    const SolveResult brute = core::BruteForceSolver(problem).solve();
    const SolveResult reference = core::ReferenceSolver(problem).solve();
    EXPECT_DOUBLE_EQ(brute.response_time_ms, reference.response_time_ms);
    for (SolverKind kind : kCatalog) {
      if (kind == SolverKind::kFordFulkersonBasic) continue;  // basic only
      expect_matches_oracle(problem, kind, brute.response_time_ms,
                            "brute_force");
    }
    expect_exact_search(problem, brute.response_time_ms);
  }
}

TEST(DifferentialSolve, SingleDiskDegenerate) {
  Rng rng(5);
  for (std::int64_t buckets : {1, 3, 7}) {
    RetrievalProblem problem = random_basic_problem(1, buckets, rng);
    const SolveResult oracle = core::BruteForceSolver(problem).solve();
    // One disk serving everything: T = k * C exactly.
    EXPECT_DOUBLE_EQ(oracle.response_time_ms,
                     static_cast<double>(buckets));
    for (SolverKind kind : kCatalog) {
      expect_matches_oracle(problem, kind, oracle.response_time_ms,
                            "brute_force");
    }
    expect_exact_search(problem, oracle.response_time_ms);
  }
}

TEST(DifferentialSolve, AllEqualCostsManyReplicas) {
  // Fully replicated on equal disks: perfect balancing, T = ceil(|Q|/N)*C.
  const std::int32_t disks = 4;
  const std::int64_t buckets = 10;
  RetrievalProblem problem = basic_shell(disks, buckets);
  for (auto& replica_set : problem.replicas) {
    replica_set = {0, 1, 2, 3};
  }
  problem.validate();
  const SolveResult oracle = core::BruteForceSolver(problem).solve();
  EXPECT_DOUBLE_EQ(oracle.response_time_ms, 3.0);  // ceil(10/4) * 1ms
  for (SolverKind kind : kCatalog) {
    expect_matches_oracle(problem, kind, oracle.response_time_ms,
                          "brute_force");
  }
  expect_exact_search(problem, oracle.response_time_ms);
}

TEST(DifferentialSolve, ZeroStartingCapacityFromDelaysAndLoads) {
  // Disk 1's delay + initial load dwarf disk 0, so every candidate time
  // below 10ms gives it sink capacity zero (capacity_for_time clamps at 0);
  // the integrated algorithms must grow capacities from that all-zero start.
  RetrievalProblem problem = basic_shell(2, 4);
  problem.system.cost_ms = {1.0, 1.0};
  problem.system.delay_ms = {0.0, 6.0};
  problem.system.init_load_ms = {0.0, 4.0};
  problem.replicas = {{0, 1}, {0, 1}, {0, 1}, {0}};
  problem.validate();
  const SolveResult oracle = core::BruteForceSolver(problem).solve();
  // Cheapest to serve everything from disk 0: 4 * 1ms.
  EXPECT_DOUBLE_EQ(oracle.response_time_ms, 4.0);
  for (SolverKind kind : kCatalog) {
    if (kind == SolverKind::kFordFulkersonBasic) continue;  // basic only
    expect_matches_oracle(problem, kind, oracle.response_time_ms,
                          "brute_force");
  }
  expect_exact_search(problem, oracle.response_time_ms);
}

TEST(DifferentialSolve, MatchingKernelOnHighReplicationShapes) {
  // Adversarial shape for the b-matching kernel: replica degrees up to the
  // full disk set make the layer graph dense and force multi-phase
  // augmentation, while heterogeneous costs exercise the capacity
  // incrementer's direct (network-free) mode.
  Rng rng(0xb1b2);
  for (int trial = 0; trial < 20; ++trial) {
    const auto disks = static_cast<std::int32_t>(3 + rng.below(4));
    const auto buckets = static_cast<std::int64_t>(4 + rng.below(6));
    RetrievalProblem problem = basic_shell(disks, buckets);
    for (auto& replica_set : problem.replicas) {
      const auto copies =
          1 + rng.below(static_cast<std::uint64_t>(disks));  // up to all
      replica_set.clear();
      while (replica_set.size() < copies) {
        const auto d = static_cast<core::DiskId>(
            rng.below(static_cast<std::uint64_t>(disks)));
        bool seen = false;
        for (core::DiskId have : replica_set) seen = seen || have == d;
        if (!seen) replica_set.push_back(d);
      }
    }
    for (std::size_t d = 0; d < static_cast<std::size_t>(disks); ++d) {
      problem.system.cost_ms[d] = 1.0 + static_cast<double>(rng.below(4));
      problem.system.delay_ms[d] = static_cast<double>(rng.below(3));
      problem.system.init_load_ms[d] = static_cast<double>(rng.below(3));
    }
    problem.validate();
    const SolveResult oracle = core::BruteForceSolver(problem).solve();
    expect_matches_oracle(problem, SolverKind::kIntegratedMatching,
                          oracle.response_time_ms, "brute_force");
    expect_exact_search(problem, oracle.response_time_ms);
  }
}

TEST(DifferentialSolve, AdaptiveFacadeMatchesOracle) {
  // The adaptive pick, choose_solver(), must deliver the oracle optimum
  // whatever kind it chooses.
  Rng rng(424242);
  for (int trial = 0; trial < 15; ++trial) {
    const auto disks = static_cast<std::int32_t>(2 + rng.below(4));
    const auto buckets = static_cast<std::int64_t>(1 + rng.below(8));
    const RetrievalProblem problem =
        random_general_problem(disks, buckets, rng);
    const SolveResult oracle = core::BruteForceSolver(problem).solve();
    const SolveResult adaptive =
        core::solve(problem, core::choose_solver(problem));
    EXPECT_DOUBLE_EQ(adaptive.response_time_ms, oracle.response_time_ms)
        << "adaptive picked " << core::solver_id(core::choose_solver(problem));
    const auto report = analysis::check_solve_result(problem, adaptive);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(DifferentialSolve, EmptyQueryDegenerate) {
  const RetrievalProblem problem = basic_shell(3, 0);
  for (SolverKind kind : kCatalog) {
    const SolveResult result = core::solve(problem, kind);
    EXPECT_DOUBLE_EQ(result.response_time_ms, 0.0) << core::solver_id(kind);
    EXPECT_TRUE(result.schedule.assigned_disk.empty());
    const auto report = analysis::check_solve_result(problem, result);
    EXPECT_TRUE(report.ok())
        << core::solver_id(kind) << ": " << report.to_string();
  }
  expect_exact_search(problem, 0.0);
}

/// Disk 0 is absurdly slow to start (X = 1e300) but absurdly fast per block
/// (C = 1e-300): its completions all round to 1e300.  Disk 1 is a unit disk.
RetrievalProblem extreme_magnitude_shell(std::int64_t buckets) {
  RetrievalProblem p = basic_shell(2, buckets);
  p.system.cost_ms = {1e-300, 1.0};
  p.system.init_load_ms = {1e300, 0.0};
  return p;
}

TEST(ExactSearch, ExtremeMagnitudesOnBothDisksTerminate) {
  // A real-valued bisection down to min C = 1e-300 never ends here; the
  // candidate search probes a handful of completion times.
  RetrievalProblem problem = extreme_magnitude_shell(4);
  for (auto& replica_set : problem.replicas) replica_set = {0, 1};
  problem.validate();
  const SolveResult oracle = core::BruteForceSolver(problem).solve();
  EXPECT_DOUBLE_EQ(oracle.response_time_ms, 4.0);  // all four on disk 1
  expect_exact_search(problem, 4.0);
}

TEST(ExactSearch, OptimumAtExtremeMagnitude) {
  // Only the extreme disk holds replicas: T* = 1e300 + 4e-300 == 1e300.
  // A probe at that candidate must admit its own slots on disk 0.
  RetrievalProblem problem = extreme_magnitude_shell(4);
  for (auto& replica_set : problem.replicas) replica_set = {0};
  problem.validate();
  const SolveResult brute = core::BruteForceSolver(problem).solve();
  EXPECT_DOUBLE_EQ(brute.response_time_ms, 1e300);
  EXPECT_DOUBLE_EQ(core::ReferenceSolver(problem).solve().response_time_ms,
                   1e300);
  expect_exact_search(problem, 1e300);
}

TEST(ExactSearch, OptimumAtTheOptimisticBound) {
  // |Q| divisible by N on equal disks: T* = (|Q|/N) * C = tmin exactly, so
  // the window has to be closed at tmin.
  RetrievalProblem problem = basic_shell(3, 6);
  for (auto& replica_set : problem.replicas) replica_set = {0, 1, 2};
  problem.validate();
  const SolveResult oracle = core::BruteForceSolver(problem).solve();
  EXPECT_DOUBLE_EQ(oracle.response_time_ms, 2.0);
  EXPECT_DOUBLE_EQ(core::compute_time_bounds(problem).tmin, 2.0);
  expect_exact_search(problem, 2.0);
}

TEST(ExactSearch, OverflowingCompletionIsTheOptimum) {
  // Two blocks at C = 1e308 complete at inf: a legal optimum that every
  // solver must return instead of stepping forever for a cheaper slot.
  RetrievalProblem problem = basic_shell(1, 2);
  problem.system.cost_ms = {1e308};
  for (auto& replica_set : problem.replicas) replica_set = {0};
  problem.validate();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(core::BruteForceSolver(problem).solve().response_time_ms, inf);
  for (SolverKind kind : kCatalog) {
    expect_matches_oracle(problem, kind, inf, "overflow");
  }
  expect_exact_search(problem, inf);
}

}  // namespace
}  // namespace repflow
