// Concurrency stress for the multi-threaded solve path, built to run under
// ThreadSanitizer (cmake -DREPFLOW_SANITIZE=thread).  Four pressure axes:
//
//   1. the lock-free parallel push-relabel engine itself, driven repeatedly
//      with the maximum worker count;
//   2. BatchSolver's persistent worker pool + atomic work cursor, across
//      consecutive batches (inter-query parallelism);
//   3. many threads each owning a SolverPool / QueryStreamScheduler while
//      the *parallel* solver nests its own worker pool inside each of them;
//   4. read-only sharing of a finalized FlowNetwork across threads — the
//      seam finalize_adjacency() exists to make safe (a dirty network would
//      make the first out_arcs() call a racing write).
//
// Iteration counts shrink under REPFLOW_TSAN (defined by the build when
// 'thread' is in REPFLOW_SANITIZE) to absorb TSan's 5-15x slowdown without
// changing what is exercised.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "analysis/flow_invariants.h"
#include "analysis/schedule_invariants.h"
#include "core/batch.h"
#include "core/solve.h"
#include "core/solver_pool.h"
#include "core/stream.h"
#include "support/rng.h"

namespace repflow {
namespace {

using core::RetrievalProblem;
using core::SolveResult;
using core::SolverKind;

#if defined(REPFLOW_TSAN)
constexpr int kRounds = 6;
constexpr int kThreads = 4;
#else
constexpr int kRounds = 20;
constexpr int kThreads = 8;
#endif

RetrievalProblem random_basic_problem(std::int32_t disks, std::int64_t buckets,
                                      Rng& rng) {
  RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = disks;
  p.system.cost_ms.assign(static_cast<std::size_t>(disks), 1.0);
  p.system.delay_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.init_load_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.model.assign(static_cast<std::size_t>(disks), "A");
  p.replicas.resize(static_cast<std::size_t>(buckets));
  for (auto& replica_set : p.replicas) {
    const std::size_t copies = 1 + rng.below(3);
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

TEST(ConcurrentSolveStress, ParallelEngineRepeatedMaxThreads) {
  Rng rng(101);
  for (int round = 0; round < kRounds; ++round) {
    const RetrievalProblem problem = random_basic_problem(
        6 + static_cast<std::int32_t>(rng.below(4)),
        20 + static_cast<std::int64_t>(rng.below(20)), rng);
    const SolveResult parallel =
        core::solve(problem, SolverKind::kParallelPushRelabelBinary, kThreads);
    const SolveResult sequential =
        core::solve(problem, SolverKind::kPushRelabelBinary);
    EXPECT_DOUBLE_EQ(parallel.response_time_ms, sequential.response_time_ms);
    const auto report = analysis::check_solve_result(problem, parallel);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(ConcurrentSolveStress, BatchSolverConsecutiveBatches) {
  Rng rng(202);
  core::BatchOptions options;
  options.threads = kThreads;
  options.policy =
      core::ExecutionPolicy::pinned(SolverKind::kPushRelabelBinary);
  core::BatchSolver batch(options);
  std::vector<SolveResult> results;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<RetrievalProblem> problems;
    const auto count = 2 * kThreads + static_cast<int>(rng.below(8));
    problems.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      problems.push_back(random_basic_problem(
          4 + static_cast<std::int32_t>(rng.below(4)),
          6 + static_cast<std::int64_t>(rng.below(12)), rng));
    }
    batch.solve_into(problems, results);
    ASSERT_EQ(results.size(), problems.size());
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const auto report =
          analysis::check_solve_result(problems[i], results[i]);
      EXPECT_TRUE(report.ok()) << "problem " << i << ": "
                               << report.to_string();
    }
  }
}

TEST(ConcurrentSolveStress, BatchSolverMatchingKernel) {
  // Same shape as above, but the pooled workers run the default policy,
  // the b-matching kernel: TSan coverage for matcher buffer reuse across
  // worker threads.
  Rng rng(212);
  core::BatchOptions options;
  options.threads = kThreads;
  core::BatchSolver batch(options);
  std::vector<SolveResult> results;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<RetrievalProblem> problems;
    const auto count = 2 * kThreads + static_cast<int>(rng.below(8));
    problems.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      problems.push_back(random_basic_problem(
          4 + static_cast<std::int32_t>(rng.below(4)),
          6 + static_cast<std::int64_t>(rng.below(12)), rng));
    }
    batch.solve_into(problems, results);
    ASSERT_EQ(results.size(), problems.size());
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const auto report =
          analysis::check_solve_result(problems[i], results[i]);
      EXPECT_TRUE(report.ok()) << "problem " << i << ": "
                               << report.to_string();
    }
  }
}

TEST(ConcurrentSolveStress, PerThreadPoolsWithNestedParallelSolver) {
  // Shared immutable problem set, one SolverPool per thread; the parallel
  // kind spins up its own nested worker pool inside each thread.
  Rng rng(303);
  std::vector<RetrievalProblem> problems;
  for (int i = 0; i < 6; ++i) {
    problems.push_back(random_basic_problem(6, 16, rng));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::SolverPool pool(/*threads=*/2);
      SolveResult result;
      for (int round = 0; round < kRounds; ++round) {
        const auto& problem =
            problems[static_cast<std::size_t>((t + round) % 6)];
        const SolverKind kind =
            (round % 3 == 0)   ? SolverKind::kParallelPushRelabelBinary
            : (round % 3 == 1) ? SolverKind::kPushRelabelBinary
                               : SolverKind::kIntegratedMatching;
        pool.solve_into(problem, kind, result);
        if (!analysis::check_solve_result(problem, result).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentSolveStress, PerThreadStreamSchedulers) {
  // Each thread replays its own query stream (replay mode) with pooled
  // solvers; streams share nothing but the immutable replica lists.
  Rng rng(404);
  const std::int32_t disks = 6;
  std::vector<std::vector<std::vector<core::DiskId>>> queries;
  for (int q = 0; q < kRounds; ++q) {
    queries.push_back(
        random_basic_problem(disks, 8 + static_cast<std::int64_t>(q), rng)
            .replicas);
  }
  workload::SystemConfig system;
  system.num_sites = 1;
  system.disks_per_site = disks;
  system.cost_ms.assign(static_cast<std::size_t>(disks), 1.0);
  system.delay_ms.assign(static_cast<std::size_t>(disks), 0.0);
  system.init_load_ms.assign(static_cast<std::size_t>(disks), 0.0);
  system.model.assign(static_cast<std::size_t>(disks), "A");

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      core::QueryStreamScheduler scheduler(
          system,
          core::ExecutionPolicy::pinned(SolverKind::kPushRelabelBinary));
      double arrival = 0.0;
      for (const auto& replicas : queries) {
        const auto event = scheduler.submit_replicas(replicas, arrival);
        if (event.response_ms <= 0.0) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        arrival += 1.0;
      }
      if (scheduler.stats().queries !=
          static_cast<std::int64_t>(queries.size())) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentSolveStress, FinalizedNetworkSharedAcrossReaders) {
  // A finalized network must be safely readable from many threads at once;
  // before finalize_adjacency() the first out_arcs() call was a hidden
  // write under a const API.
  Rng rng(505);
  const RetrievalProblem problem = random_basic_problem(8, 40, rng);
  core::RetrievalNetwork network(problem);
  ASSERT_FALSE(network.net().adjacency_dirty());
  const graph::FlowNetwork& net = network.net();
  std::atomic<std::int64_t> total_arcs{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::int64_t local = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (graph::Vertex v = 0; v < net.num_vertices(); ++v) {
          local += static_cast<std::int64_t>(net.out_arcs(v).size());
        }
        if (!analysis::check_csr_adjacency(net).ok()) {
          local = -1'000'000'000;
        }
      }
      total_arcs.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(total_arcs.load(),
            static_cast<std::int64_t>(kThreads) * kRounds * net.num_arcs());
}

}  // namespace
}  // namespace repflow
