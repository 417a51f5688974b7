// The Hopcroft-Karp b-matching kernel (core::BipartiteMatcher) driven
// directly: the Algorithm 6 conserve-and-backtrack contract (a retained
// matching resumes to the same size a fresh matcher reaches, and a restored
// snapshot rebuilds the exact matching state).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/bipartite_matching.h"
#include "support/rng.h"
#include "workload/experiments.h"

namespace repflow {
namespace {

using core::RetrievalProblem;

/// Random generalized problem: heterogeneous costs, nonzero delays/loads,
/// 2..4 replicas per bucket.
RetrievalProblem random_problem(std::int32_t disks, std::int64_t buckets,
                                Rng& rng) {
  RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = disks;
  p.system.cost_ms.resize(static_cast<std::size_t>(disks));
  p.system.delay_ms.resize(static_cast<std::size_t>(disks));
  p.system.init_load_ms.resize(static_cast<std::size_t>(disks));
  p.system.model.assign(static_cast<std::size_t>(disks), "A");
  for (std::size_t d = 0; d < static_cast<std::size_t>(disks); ++d) {
    p.system.cost_ms[d] = 1.0 + static_cast<double>(rng.below(5));
    p.system.delay_ms[d] = static_cast<double>(rng.below(3));
    p.system.init_load_ms[d] = static_cast<double>(rng.below(4));
  }
  p.replicas.resize(static_cast<std::size_t>(buckets));
  for (auto& replica_set : p.replicas) {
    const std::size_t copies = 2 + rng.below(3);
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

/// The hot-slow shape: `disks` * `per_disk` buckets on unit-cost disks,
/// each on `copies` distinct disks drawn with a cubed-uniform skew toward
/// low ids, so a few hot disks fill up and carry long slot lists.
RetrievalProblem hot_slow_problem(std::int32_t disks, std::size_t copies,
                                  std::int64_t per_disk, Rng& rng) {
  RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = disks;
  p.system.cost_ms.assign(static_cast<std::size_t>(disks), 1.0);
  p.system.delay_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.init_load_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.model.assign(static_cast<std::size_t>(disks), "A");
  p.replicas.resize(static_cast<std::size_t>(disks * per_disk));
  for (auto& replica_set : p.replicas) {
    while (replica_set.size() < copies) {
      const double u = rng.uniform01();
      const auto d = static_cast<core::DiskId>(disks * u * u * u);
      bool seen = false;
      for (core::DiskId have : replica_set) seen = seen || have == d;
      if (!seen) replica_set.push_back(d);
    }
  }
  p.validate();
  return p;
}

/// Maximum matching size under caps(t), from a freshly bound matcher.
std::int64_t fresh_matched(const RetrievalProblem& problem, double t) {
  core::BipartiteMatcher matcher;
  matcher.rebind(problem);
  matcher.set_capacities_for_time(t);
  return matcher.augment_to_maximum();
}

// Algorithm 6's conserve-and-backtrack step on the kernel itself: a matching
// saved after an infeasible probe is restored exactly (matched count, disk
// loads, free list), and a retained resume at caps(t) — before or after a
// restore — reaches the same maximum matching size as a fresh matcher.
TEST(MatchingKernel, RetainedResumeAndSnapshotRestore) {
  Rng rng(9103);
  const RetrievalProblem problem = random_problem(8, 60, rng);

  core::BipartiteMatcher matcher;
  matcher.rebind(problem);

  // Infeasible probe: a partial matching, retained.
  matcher.set_capacities_for_time(2.0);
  const std::int64_t partial = matcher.augment_to_maximum();
  ASSERT_LT(partial, problem.query_size());
  EXPECT_EQ(partial, fresh_matched(problem, 2.0));

  std::vector<std::int32_t> snapshot;
  matcher.save_matching_into(snapshot);
  const std::vector<std::int32_t> snapshot_load = matcher.workspace().load;
  const std::vector<std::int32_t> snapshot_free =
      matcher.workspace().free_buckets;

  // Retained resume at a laxer time: only free buckets are augmented from.
  matcher.set_capacities_for_time(50.0);
  EXPECT_EQ(matcher.augment_to_maximum(), fresh_matched(problem, 50.0));
  EXPECT_EQ(matcher.matched(), problem.query_size());

  // Backtrack to the snapshot: the matching state is rebuilt exactly.
  matcher.restore_matching(snapshot);
  EXPECT_EQ(matcher.matched(), partial);
  EXPECT_EQ(matcher.workspace().load, snapshot_load);
  EXPECT_EQ(matcher.workspace().free_buckets, snapshot_free);

  // Resume mid-range from the restored matching.
  for (const double t : {6.0, 12.0, 20.0}) {
    matcher.set_capacities_for_time(t);
    EXPECT_EQ(matcher.augment_to_maximum(), fresh_matched(problem, t))
        << "t=" << t;
  }
}

// The kernel's work per phase stays linear in the instance on a hot-slow
// shape: each phase reads a full disk's slot list once (the per-disk scan
// cursor), not once per arc into the disk.  `visits` counts every adjacency
// entry and slot the BFS reads plus every arc and slot the DFS reads, so a
// phase that reads each arc and each slot about twice stays under 2 * arcs.
// On unit-cost disks the greedy seed leaves 3 buckets for one phase; on
// Table IV Experiment 5's disks (two sites of 16) the same replica lists
// take an 8-probe search with 13 phases.  Without the cursor, every scan
// restarts at the head of a hot disk's slot list, and the kernel reads 1.1
// to 22 times the bound.
TEST(MatchingKernel, HotSlowWorkStaysLinearInArcs) {
  for (const bool exp5_disks : {false, true}) {
    Rng rng(1);
    RetrievalProblem problem = hot_slow_problem(32, 8, 200, rng);
    if (exp5_disks) {
      problem.system = workload::make_experiment_system(5, 16, rng);
      problem.validate();
    }
    std::uint64_t arcs = 0;
    for (const auto& replica_set : problem.replicas) {
      arcs += replica_set.size();
    }
    ASSERT_EQ(arcs, 51200u);
    core::IntegratedMatchingSolver solver;
    core::SolveResult result;
    solver.solve_into(problem, result);
    EXPECT_EQ(result.schedule.assigned_disk.size(), 6400u);
    const std::uint64_t phases = result.flow_stats.global_relabels;
    EXPECT_GT(phases, 0u);
    EXPECT_LE(result.flow_stats.dfs_visits, 2 * phases * arcs)
        << (exp5_disks ? "Experiment 5" : "unit-cost") << " disks, "
        << phases << " phases";
  }
}

}  // namespace
}  // namespace repflow
