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
// to their termination argument: at most ceil(log2 n) + 1 resumes for the n
// candidates between the lower bound (the larger of the |Q|-th smallest
// completion and the bucket bound) and a greedy schedule's T, and no
// capacity steps, including on magnitudes (1e-300
// next to 1e300) where a real-valued bisection never narrows below its
// resolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/schedule_invariants.h"
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

/// Every completion time D_j + X_j + k*C_j (k <= min(in-degree_j, |Q|)),
/// sorted.  Counted here from the definition, not by the driver.
std::vector<double> sorted_candidates(const RetrievalProblem& problem) {
  const auto degree = problem.disk_in_degrees();
  std::vector<double> out;
  for (core::DiskId d = 0; d < problem.total_disks(); ++d) {
    const std::int64_t k_max = std::min<std::int64_t>(
        degree[static_cast<std::size_t>(d)], problem.query_size());
    for (std::int64_t k = 1; k <= k_max; ++k) {
      out.push_back(problem.completion_time(d, k));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The T of the greedy schedule that sends each bucket, in query order, to
/// the replica with the least next completion (the first listed on a tie).
double greedy_response_time(const RetrievalProblem& problem) {
  std::vector<std::int64_t> load(
      static_cast<std::size_t>(problem.total_disks()), 0);
  double response = 0.0;
  for (const auto& replica_set : problem.replicas) {
    core::DiskId pick = replica_set.front();
    for (core::DiskId d : replica_set) {
      if (problem.completion_time(d, load[d] + 1) <
          problem.completion_time(pick, load[pick] + 1)) {
        pick = d;
      }
    }
    response = std::max(response, problem.completion_time(pick, ++load[pick]));
  }
  return response;
}

/// The largest over buckets of the least D_j + X_j + C_j among its
/// replicas: every bucket needs one of them.
double bucket_bound(const RetrievalProblem& problem) {
  double bound = 0.0;
  for (const auto& replica_set : problem.replicas) {
    double least = problem.completion_time(replica_set.front(), 1);
    for (core::DiskId d : replica_set) {
      least = std::min(least, problem.completion_time(d, 1));
    }
    bound = std::max(bound, least);
  }
  return bound;
}

/// The driver's closed search window: from the larger of the |Q|-th
/// smallest candidate (fewer than |Q| sink slots below it) and the bucket
/// bound up to the greedy schedule's T.
std::pair<double, double> tight_window(const RetrievalProblem& problem) {
  const std::vector<double> candidates = sorted_candidates(problem);
  const double by_count =
      candidates[static_cast<std::size_t>(problem.query_size() - 1)];
  return {std::max(by_count, bucket_bound(problem)),
          greedy_response_time(problem)};
}

/// ceil(log2 n) + 1 for the n candidates inside the tight window; 0 when
/// the query is empty.
std::int64_t probe_bound(const RetrievalProblem& problem) {
  if (problem.query_size() == 0) return 0;
  const auto [lower, upper] = tight_window(problem);
  std::int64_t n = 0;
  for (const double t : sorted_candidates(problem)) {
    if (t >= lower && t <= upper) ++n;
  }
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
  // A hot-slow shape too large to enumerate: 32 disks x 50 buckets per disk,
  // each bucket on 8 disks drawn with a cubed-uniform skew toward the low
  // ids, which are also the slow ones.  The hot disks fill up and carry
  // long slot lists, the case the kernel's per-disk scan cursor serves.
  RetrievalProblem problem = basic_shell(32, 32 * 50);
  for (auto& replica_set : problem.replicas) {
    while (replica_set.size() < 8) {
      const double u = rng.uniform01();
      const auto d = static_cast<core::DiskId>(32 * u * u * u);
      bool seen = false;
      for (core::DiskId have : replica_set) seen = seen || have == d;
      if (!seen) replica_set.push_back(d);
    }
  }
  for (std::size_t d = 0; d < 32; ++d) {
    problem.system.cost_ms[d] = d < 8 ? 2.0 : d < 16 ? 1.0 : 0.5;
  }
  problem.validate();
  expect_matches_oracle(problem, SolverKind::kIntegratedMatching,
                        core::ReferenceSolver(problem).solve().response_time_ms,
                        "reference");
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
  // |Q| divisible by N on equal disks: T* = (|Q|/N) * C is at once the
  // |Q|-th smallest completion and the greedy round robin's T, so the
  // window has to be closed at both ends.
  RetrievalProblem problem = basic_shell(3, 6);
  for (auto& replica_set : problem.replicas) replica_set = {0, 1, 2};
  problem.validate();
  const SolveResult oracle = core::BruteForceSolver(problem).solve();
  EXPECT_DOUBLE_EQ(oracle.response_time_ms, 2.0);
  EXPECT_EQ(tight_window(problem), std::make_pair(2.0, 2.0));
  expect_exact_search(problem, 2.0);
}

TEST(ExactSearch, GreedyOptimumTakesOneProbe) {
  // 16 buckets on 2 equal disks, every bucket on both: the greedy schedule
  // alternates to T = 8, the 16th smallest completion is 8 too, and the one
  // probe at 8 is the final one.  The paper's window [8, 16] takes 4.
  RetrievalProblem problem = basic_shell(2, 16);
  for (auto& replica_set : problem.replicas) replica_set = {0, 1};
  problem.validate();
  EXPECT_EQ(tight_window(problem), std::make_pair(8.0, 8.0));
  for (const auto& [label, result] : binary_scaling_results(problem)) {
    EXPECT_EQ(result.response_time_ms, 8.0) << label;
    EXPECT_EQ(result.binary_probes, 1) << label;
  }
  // The whole greedy schedule fits caps(8), so the integrated kernels are
  // seeded with a complete flow and the probe does no work.  The black box
  // starts every probe from zero flow and routes all 16 buckets.
  for (const auto& [label, result] : binary_scaling_results(problem)) {
    if (label == "blackbox") {
      EXPECT_EQ(result.flow_stats.pushes, 34u) << label;
    } else if (label == "matching") {
      EXPECT_EQ(result.flow_stats.augmentations, 0u) << label;
    } else {
      EXPECT_EQ(result.flow_stats.pushes, 0u) << label;
    }
  }
  expect_exact_search(problem, 8.0);
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
