// Tests for the serving layer: ExecutionPolicy / ExecutionContext (solver
// selection modes, facade parity), the admission-controlled QueryRouter
// (shed / coalesce semantics and merged-load exactness), batched capacity
// stepping, and BatchSolver error-path hardening.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/execution.h"
#include "core/router.h"
#include "core/solve.h"
#include "core/stream.h"
#include "decluster/schemes.h"
#include "obs/serving.h"
#include "support/rng.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

namespace repflow::core {
namespace {

constexpr double kTimeEps = 1e-6;

workload::SystemConfig uniform_system(std::int32_t disks, double cost) {
  workload::SystemConfig sys;
  sys.num_sites = 1;
  sys.disks_per_site = disks;
  sys.cost_ms.assign(static_cast<std::size_t>(disks), cost);
  sys.delay_ms.assign(static_cast<std::size_t>(disks), 0.0);
  sys.init_load_ms.assign(static_cast<std::size_t>(disks), 0.0);
  sys.model.assign(static_cast<std::size_t>(disks), "U");
  return sys;
}

RetrievalProblem sparse_problem() {
  RetrievalProblem p;
  p.system = uniform_system(4, 2.0);
  p.replicas = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  p.validate();
  return p;
}

RetrievalProblem dense_problem() {
  RetrievalProblem p;
  p.system = uniform_system(40, 2.0);
  std::vector<DiskId> all;
  for (DiskId d = 0; d < 40; ++d) all.push_back(d);
  p.replicas = {all, all};  // avg replica degree 40 > any sane threshold
  p.validate();
  return p;
}

/// `buckets` buckets on a 40-disk array, each replicated on `degree` disks.
RetrievalProblem degree_problem(std::size_t buckets, DiskId degree) {
  RetrievalProblem p;
  p.system = uniform_system(40, 2.0);
  std::vector<DiskId> replicas;
  for (DiskId d = 0; d < degree; ++d) replicas.push_back(d);
  p.replicas.assign(buckets, replicas);
  p.validate();
  return p;
}

TEST(ExecutionPolicy, ChooseSolverSplitsOnAverageDegree) {
  EXPECT_EQ(choose_solver(sparse_problem()), SolverKind::kIntegratedMatching);
  EXPECT_EQ(choose_solver(dense_problem()), SolverKind::kPushRelabelBinary);
  // The cutover is inclusive: average degree == threshold stays matching.
  const auto at = static_cast<DiskId>(kMatchingDegreeThreshold);
  EXPECT_EQ(choose_solver(degree_problem(3, at)),
            SolverKind::kIntegratedMatching);
  EXPECT_EQ(choose_solver(degree_problem(3, at + 1)),
            SolverKind::kPushRelabelBinary);
  RetrievalProblem empty;
  empty.system = uniform_system(2, 1.0);
  EXPECT_EQ(choose_solver(empty), SolverKind::kIntegratedMatching);
}

TEST(ExecutionPolicy, AdaptiveContextSelectsWithChooseSolver) {
  ExecutionContext context;  // ExecutionPolicy{} is the adaptive policy
  for (const RetrievalProblem& p :
       {sparse_problem(), dense_problem(), degree_problem(3, 17)}) {
    EXPECT_EQ(context.select(p), choose_solver(p));
  }
}

TEST(ExecutionPolicy, PinnedModeIgnoresProblemShape) {
  ExecutionContext context(
      ExecutionPolicy::pinned(SolverKind::kBlackBoxBinary));
  EXPECT_EQ(context.select(sparse_problem()),
            SolverKind::kBlackBoxBinary);
  EXPECT_EQ(context.select(dense_problem()), SolverKind::kBlackBoxBinary);
}

TEST(ExecutionContext, MatchesFacadeBitForBit) {
  Rng rng(311);
  const auto rep =
      decluster::make_orthogonal(8, decluster::SiteMapping::kCopyPerSite);
  const auto sys = workload::make_experiment_system(5, 8, rng);
  const workload::QueryGenerator gen(8, workload::QueryType::kArbitrary,
                                     workload::LoadKind::kLoad2);
  ExecutionContext context(
      ExecutionPolicy::pinned(SolverKind::kIntegratedMatching));
  for (int i = 0; i < 6; ++i) {
    const auto problem = build_problem(rep, gen.next(rng), sys);
    const SolveResult via_facade =
        solve(problem, SolverKind::kIntegratedMatching);
    const SolveResult& via_context = context.solve_scratch(problem);
    EXPECT_EQ(via_context.response_time_ms, via_facade.response_time_ms);
    EXPECT_EQ(via_context.schedule.assigned_disk,
              via_facade.schedule.assigned_disk);
    EXPECT_EQ(via_context.capacity_steps, via_facade.capacity_steps);
    EXPECT_EQ(via_context.binary_probes, via_facade.binary_probes);
    EXPECT_EQ(via_context.maxflow_runs, via_facade.maxflow_runs);
  }
}

// --- Invalid input at the serving seam ---

/// Ways a problem can be malformed, each applied to sparse_problem().
std::vector<std::pair<const char*, RetrievalProblem>> invalid_problems() {
  std::vector<std::pair<const char*, RetrievalProblem>> out;
  const auto poison = [&out](const char* what, auto&& mutate) {
    RetrievalProblem p = sparse_problem();
    mutate(p);
    out.emplace_back(what, std::move(p));
  };
  poison("NaN cost", [](RetrievalProblem& p) {
    p.system.cost_ms[0] = std::numeric_limits<double>::quiet_NaN();
  });
  poison("+inf cost", [](RetrievalProblem& p) {
    p.system.cost_ms[0] = std::numeric_limits<double>::infinity();
  });
  poison("zero cost", [](RetrievalProblem& p) { p.system.cost_ms[0] = 0.0; });
  poison("negative cost",
         [](RetrievalProblem& p) { p.system.cost_ms[0] = -1.0; });
  poison("negative delay",
         [](RetrievalProblem& p) { p.system.delay_ms[0] = -1.0; });
  poison("replica disk >= N", [](RetrievalProblem& p) {
    p.replicas[1].push_back(p.system.total_disks());
  });
  poison("bucket without replica",
         [](RetrievalProblem& p) { p.replicas[2].clear(); });
  return out;
}

class InvalidInput : public ::testing::TestWithParam<SolverKind> {};

TEST_P(InvalidInput, ThrowsAndLeavesTheContextClean) {
  const SolverKind kind = GetParam();
  // One worker keeps the parallel engine's push order, and so its flow
  // counters, reproducible between the two contexts.
  const ExecutionPolicy policy = ExecutionPolicy::pinned(kind, /*threads=*/1);
  const RetrievalProblem good = sparse_problem();
  ExecutionContext fresh(policy);
  SolveResult expected;
  fresh.solve_into(good, kind, expected);

  ExecutionContext context(policy);
  SolveResult result;
  context.solve_into(good, kind, result);  // warm shells, then poison them
  for (const auto& [what, bad] : invalid_problems()) {
    EXPECT_THROW(context.solve_into(bad, kind, result), std::invalid_argument)
        << what;
    EXPECT_THROW(solve(bad, kind), std::invalid_argument) << what;
    context.solve_into(good, kind, result);
    EXPECT_EQ(result.response_time_ms, expected.response_time_ms) << what;
    EXPECT_EQ(result.schedule.assigned_disk, expected.schedule.assigned_disk)
        << what;
    EXPECT_EQ(result.schedule.per_disk_count,
              expected.schedule.per_disk_count)
        << what;
    EXPECT_EQ(result.binary_probes, expected.binary_probes) << what;
    EXPECT_EQ(result.capacity_steps, expected.capacity_steps) << what;
    EXPECT_EQ(result.maxflow_runs, expected.maxflow_runs) << what;
    EXPECT_EQ(result.flow_stats.to_string(), expected.flow_stats.to_string())
        << what;
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, InvalidInput,
                         ::testing::ValuesIn(kAllSolverKinds),
                         [](const ::testing::TestParamInfo<SolverKind>& info) {
                           return std::string(solver_id(info.param));
                         });

TEST(ExecutionContext, OpenSessionMatchesOneShotSolve) {
  ExecutionContext context;
  const RetrievalProblem p = sparse_problem();
  auto session = context.open_session(p.system);
  for (const auto& replicas : p.replicas) session.add_bucket(replicas);
  const double incremental = session.reoptimize();
  EXPECT_EQ(incremental,
            solve(p, SolverKind::kPushRelabelBinary).response_time_ms);
}

TEST(CapacityIncrementer, TieHeavyInstancesStayExact) {
  // Uniform systems make every capacity step a full tie: all disks admit
  // at once, so candidate response times repeat across disks.  The
  // binary-scaling drivers must stay exact and, searching the candidates
  // directly, take no capacity steps at all.
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    RetrievalProblem p;
    p.system = uniform_system(6, 1.0 + static_cast<double>(rng.below(3)));
    const auto buckets = 2 + rng.below(10);
    for (std::uint64_t b = 0; b < buckets; ++b) {
      auto picks = rng.sample_without_replacement(6, 2 + rng.below(2));
      p.replicas.push_back({picks.begin(), picks.end()});
    }
    p.validate();
    const auto alg6 = solve(p, SolverKind::kPushRelabelBinary);
    const auto matching = solve(p, SolverKind::kIntegratedMatching);
    const auto reference = solve(p, SolverKind::kFordFulkersonIncremental);
    EXPECT_EQ(alg6.response_time_ms, reference.response_time_ms);
    EXPECT_EQ(matching.response_time_ms, reference.response_time_ms);
    EXPECT_EQ(alg6.capacity_steps, 0);
    EXPECT_EQ(matching.capacity_steps, 0);
  }
}

// --- QueryRouter ---

struct StreamFixture {
  decluster::ReplicatedAllocation rep =
      decluster::make_orthogonal(6, decluster::SiteMapping::kCopyPerSite);
  Rng rng{1234};
  workload::SystemConfig sys = workload::make_experiment_system(5, 6, rng);
  workload::QueryGenerator gen{6, workload::QueryType::kArbitrary,
                               workload::LoadKind::kLoad2};
};

TEST(QueryRouter, OffModeIsPassThrough) {
  StreamFixture f;
  QueryStreamScheduler routed(f.rep, f.sys);
  QueryStreamScheduler direct(f.rep, f.sys);
  QueryRouter router(routed, RouterOptions{});
  Rng arrivals_rng(9);
  double t = 0.0;
  for (int i = 0; i < 20; ++i) {
    const auto query = f.gen.next(f.rng);
    const RouterOutcome outcome = router.submit(query, t);
    const StreamEvent expected = direct.submit(query, t);
    ASSERT_EQ(outcome.decision, RouterDecision::kAdmitted);
    ASSERT_TRUE(outcome.event.has_value());
    EXPECT_DOUBLE_EQ(outcome.event->response_ms, expected.response_ms);
    EXPECT_EQ(outcome.merged, 1);
    t += static_cast<double>(arrivals_rng.below(40));
  }
  EXPECT_EQ(router.stats().arrivals, 20);
  EXPECT_EQ(router.stats().admitted, 20);
  EXPECT_EQ(router.stats().shed, 0);
  EXPECT_EQ(routed.events().size(), 20u);
}

TEST(QueryRouter, ShedDropsUnderBacklogAndRecords) {
  StreamFixture f;
  QueryStreamScheduler scheduler(f.rep, f.sys);
  RouterOptions options;
  options.mode = AdmissionMode::kShed;
  options.max_backlog_ms = 10.0;
  QueryRouter router(scheduler, options);
  const std::uint64_t shed_before =
      obs::RouterInstruments::global().shed.value();
  // Everything arrives at t=0: the first queries build backlog past the
  // threshold, after which arrivals must be dropped.
  std::int64_t shed = 0;
  for (int i = 0; i < 30; ++i) {
    const RouterOutcome outcome = router.submit(f.gen.next(f.rng), 0.0);
    if (outcome.decision == RouterDecision::kShed) {
      ++shed;
      EXPECT_FALSE(outcome.event.has_value());
      EXPECT_GT(outcome.backlog_ms, options.max_backlog_ms);
    }
  }
  EXPECT_GT(shed, 0);
  EXPECT_EQ(router.stats().shed, shed);
  EXPECT_EQ(router.stats().admitted + shed, 30);
  EXPECT_EQ(scheduler.events().size(),
            static_cast<std::size_t>(router.stats().admitted));
#if !defined(REPFLOW_OBS_DISABLED)
  EXPECT_EQ(obs::RouterInstruments::global().shed.value() - shed_before,
            static_cast<std::uint64_t>(shed));
#endif
}

TEST(QueryRouter, CoalescedBatchMatchesDirectMergedSubmission) {
  StreamFixture f;
  QueryStreamScheduler routed(f.rep, f.sys);
  QueryStreamScheduler mirror(f.rep, f.sys);
  RouterOptions options;
  options.mode = AdmissionMode::kCoalesce;
  options.max_backlog_ms = 5.0;
  QueryRouter router(routed, options);

  const auto q1 = f.gen.next(f.rng);
  const auto q2 = f.gen.next(f.rng);
  const auto q3 = f.gen.next(f.rng);

  // q1 admits (no backlog yet) and loads the disks.
  const RouterOutcome o1 = router.submit(q1, 0.0);
  ASSERT_EQ(o1.decision, RouterDecision::kAdmitted);
  ASSERT_GT(routed.max_backlog_at(0.0), options.max_backlog_ms)
      << "fixture too small to overload";

  // q2 arrives overloaded: deferred into the merge buffer.
  const RouterOutcome o2 = router.submit(q2, 1.0);
  ASSERT_EQ(o2.decision, RouterDecision::kCoalesced);
  EXPECT_FALSE(o2.event.has_value());
  EXPECT_EQ(router.pending(), 1u);

  // q3 arrives after the backlog drained: the buffer rides out with it as
  // one merged problem.
  const double late = routed.max_backlog_at(0.0) + options.max_backlog_ms;
  const RouterOutcome o3 = router.submit(q3, late);
  ASSERT_EQ(o3.decision, RouterDecision::kFlushed);
  ASSERT_TRUE(o3.event.has_value());
  EXPECT_EQ(o3.merged, 2);
  EXPECT_EQ(router.pending(), 0u);

  // Exactness: the merged solve equals submitting the member queries'
  // bucket union (first-appearance order, shared buckets retrieved once)
  // directly on a mirror stream with the identical history.
  mirror.submit(q1, 0.0);
  auto merged = replica_lists(f.rep, q2);
  std::set<decluster::BucketId> seen(q2.begin(), q2.end());
  const auto q3_lists = replica_lists(f.rep, q3);
  for (std::size_t k = 0; k < q3.size(); ++k) {
    if (seen.insert(q3[k]).second) merged.push_back(q3_lists[k]);
  }
  const StreamEvent expected = mirror.submit_replicas(std::move(merged), late);
  EXPECT_DOUBLE_EQ(o3.event->response_ms, expected.response_ms);
  EXPECT_EQ(o3.event->schedule.assigned_disk,
            expected.schedule.assigned_disk);
  EXPECT_EQ(router.stats().coalesced, 2);
  EXPECT_EQ(router.stats().flushes, 1);
}

TEST(QueryRouter, CoalesceDedupsSharedBuckets) {
  StreamFixture f;
  QueryStreamScheduler scheduler(f.rep, f.sys);
  RouterOptions options;
  options.mode = AdmissionMode::kCoalesce;
  options.max_backlog_ms = 1.0;
  QueryRouter router(scheduler, options);
  const workload::Query a = {0, 1, 2, 3};
  const workload::Query b = {2, 3, 4, 5};  // overlaps a on {2, 3}
  ASSERT_EQ(router.submit(a, 0.0).decision, RouterDecision::kAdmitted);
  ASSERT_EQ(router.submit(a, 0.0).decision, RouterDecision::kCoalesced);
  ASSERT_EQ(router.submit(b, 0.0).decision, RouterDecision::kCoalesced);
  EXPECT_EQ(router.pending(), 2u);
  // b's overlap with the buffered copy of a dedups ({2, 3}); the admitted
  // first submission is not in the buffer and does not participate.
  EXPECT_EQ(router.stats().dedup_hits, 2);
  const auto event = router.flush(0.0);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->buckets, 6);  // union of a and b, not 8
}

TEST(QueryRouter, FullBufferFlushesEvenWhileOverloaded) {
  StreamFixture f;
  QueryStreamScheduler scheduler(f.rep, f.sys);
  RouterOptions options;
  options.mode = AdmissionMode::kCoalesce;
  options.max_backlog_ms = 1.0;
  options.max_coalesce = 3;
  QueryRouter router(scheduler, options);
  ASSERT_EQ(router.submit(f.gen.next(f.rng), 0.0).decision,
            RouterDecision::kAdmitted);
  ASSERT_EQ(router.submit(f.gen.next(f.rng), 0.0).decision,
            RouterDecision::kCoalesced);
  ASSERT_EQ(router.submit(f.gen.next(f.rng), 0.0).decision,
            RouterDecision::kCoalesced);
  const RouterOutcome full = router.submit(f.gen.next(f.rng), 0.0);
  EXPECT_EQ(full.decision, RouterDecision::kFlushed);
  EXPECT_EQ(full.merged, 3);
  EXPECT_EQ(router.pending(), 0u);
  EXPECT_EQ(router.stats().max_pending, 3u);
}

TEST(QueryRouter, FlushDrainsPendingAndEnforcesArrivalOrder) {
  StreamFixture f;
  QueryStreamScheduler scheduler(f.rep, f.sys);
  RouterOptions options;
  options.mode = AdmissionMode::kCoalesce;
  options.max_backlog_ms = 1.0;
  QueryRouter router(scheduler, options);
  EXPECT_EQ(router.flush(0.0), std::nullopt);  // nothing pending
  router.submit(f.gen.next(f.rng), 5.0);
  router.submit(f.gen.next(f.rng), 5.0);  // coalesced behind the first
  ASSERT_EQ(router.pending(), 1u);
  EXPECT_THROW(router.submit(f.gen.next(f.rng), 4.0), std::invalid_argument);
  EXPECT_THROW(router.flush(4.0), std::invalid_argument);
  const auto event = router.flush(6.0);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(router.pending(), 0u);
  EXPECT_EQ(scheduler.events().size(), 2u);
}

TEST(QueryRouter, ReplayModeRejectsQuerySubmission) {
  StreamFixture f;
  // Replay-mode scheduler with adaptive selection on: replica-list
  // submission must work (through the router too), bucket-id submission
  // must throw in both layers.
  QueryStreamScheduler scheduler(f.sys, ExecutionPolicy{});
  EXPECT_TRUE(scheduler.adaptive_selection());
  EXPECT_EQ(scheduler.allocation(), nullptr);
  QueryRouter router(scheduler, RouterOptions{});
  EXPECT_THROW(router.submit(f.gen.next(f.rng), 0.0), std::logic_error);
  EXPECT_THROW(scheduler.submit(f.gen.next(f.rng), 0.0), std::logic_error);
  const RouterOutcome outcome =
      router.submit_replicas({{0, 1}, {2, 3}, {4, 5}}, 0.0);
  ASSERT_EQ(outcome.decision, RouterDecision::kAdmitted);
  EXPECT_GT(outcome.event->response_ms, 0.0);
  // Replay arrivals stay monotone through the router as well.
  EXPECT_THROW(router.submit_replicas({{0}}, -1.0), std::invalid_argument);
}

TEST(QueryStream, AdaptiveToggleRestoresPinnedKind) {
  StreamFixture f;
  QueryStreamScheduler scheduler(
      f.rep, f.sys,
      ExecutionPolicy::pinned(SolverKind::kFordFulkersonIncremental));
  EXPECT_FALSE(scheduler.adaptive_selection());
  scheduler.set_adaptive_selection(true);
  EXPECT_TRUE(scheduler.adaptive_selection());
  EXPECT_EQ(scheduler.policy().mode, SelectionMode::kFixedThreshold);
  scheduler.set_adaptive_selection(false);
  EXPECT_FALSE(scheduler.adaptive_selection());
  EXPECT_EQ(scheduler.policy().pinned_kind,
            SolverKind::kFordFulkersonIncremental);
  scheduler.submit(f.gen.next(f.rng), 0.0);  // still serves queries
  EXPECT_EQ(scheduler.events().size(), 1u);
}

// --- BatchSolver hardening ---

TEST(BatchSolver, SurvivesThrowingProblemMidBatch) {
  // A problem that makes the pinned solver throw: the basic-only solver on
  // a non-basic system.
  RetrievalProblem bad;
  bad.system.num_sites = 1;
  bad.system.disks_per_site = 2;
  bad.system.cost_ms = {1.0, 2.0};
  bad.system.delay_ms = {0.0, 0.0};
  bad.system.init_load_ms = {0.0, 0.0};
  bad.system.model = {"a", "b"};
  bad.replicas = {{0, 1}};
  RetrievalProblem good;
  good.system = uniform_system(2, 1.0);
  good.replicas = {{0, 1}, {0, 1}};
  good.validate();

  BatchOptions options;
  options.threads = 4;
  options.policy = ExecutionPolicy::pinned(SolverKind::kFordFulkersonBasic);
  BatchSolver batch(options);

  std::vector<RetrievalProblem> poisoned(12, good);
  poisoned[5] = bad;
  std::vector<SolveResult> results;
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(batch.solve_into(poisoned, results), std::invalid_argument);
    // The solver stays fully usable after the throw: a clean batch on the
    // same instance must succeed with correct results.
    const std::vector<RetrievalProblem> clean(12, good);
    batch.solve_into(clean, results);
    ASSERT_EQ(results.size(), clean.size());
    const double expected =
        solve(good, SolverKind::kFordFulkersonBasic).response_time_ms;
    for (const auto& r : results) {
      EXPECT_NEAR(r.response_time_ms, expected, kTimeEps);
    }
  }
}

// Regression test for the lock-discipline bug the thread-safety annotation
// pass found: first_error_ was re-armed and read without error_mutex_, so a
// batch where several workers throw at once raced on the exception slot.
// Every problem here is poisoned, so with 4 workers the "first error wins"
// store is genuinely contended on each round; the TSan CI job runs this.
TEST(BatchSolver, ConcurrentThrowsRaceTheErrorSlotSafely) {
  RetrievalProblem bad;
  bad.system.num_sites = 1;
  bad.system.disks_per_site = 2;
  bad.system.cost_ms = {1.0, 2.0};
  bad.system.delay_ms = {0.0, 0.0};
  bad.system.init_load_ms = {0.0, 0.0};
  bad.system.model = {"a", "b"};
  bad.replicas = {{0, 1}};
  RetrievalProblem good;
  good.system = uniform_system(2, 1.0);
  good.replicas = {{0, 1}, {0, 1}};
  good.validate();

  BatchOptions options;
  options.threads = 4;
  options.policy = ExecutionPolicy::pinned(SolverKind::kFordFulkersonBasic);
  BatchSolver batch(options);

#if defined(REPFLOW_TSAN)
  constexpr int kRounds = 8;
#else
  constexpr int kRounds = 32;
#endif
  const std::vector<RetrievalProblem> all_bad(16, bad);
  const std::vector<RetrievalProblem> clean(16, good);
  std::vector<SolveResult> results;
  const double expected =
      solve(good, SolverKind::kFordFulkersonBasic).response_time_ms;
  for (int round = 0; round < kRounds; ++round) {
    EXPECT_THROW(batch.solve_into(all_bad, results), std::invalid_argument);
    // The error slot re-arms cleanly: the next batch neither rethrows the
    // stale exception nor loses results.
    batch.solve_into(clean, results);
    ASSERT_EQ(results.size(), clean.size());
    for (const auto& r : results) {
      EXPECT_NEAR(r.response_time_ms, expected, kTimeEps);
    }
  }
}

TEST(BatchSolver, PolicyOverridesPinnedKind) {
  Rng rng(42);
  const auto rep =
      decluster::make_orthogonal(8, decluster::SiteMapping::kCopyPerSite);
  const auto sys = workload::make_experiment_system(5, 8, rng);
  const workload::QueryGenerator gen(8, workload::QueryType::kArbitrary,
                                     workload::LoadKind::kLoad2);
  std::vector<RetrievalProblem> problems;
  for (int i = 0; i < 8; ++i) {
    problems.push_back(build_problem(rep, gen.next(rng), sys));
  }
  BatchOptions options;
  options.threads = 2;
  options.solver = SolverKind::kBlackBoxBinary;  // overridden below
  options.policy = ExecutionPolicy{};
  EXPECT_EQ(options.effective_policy().mode, SelectionMode::kFixedThreshold);
  const auto results = solve_batch(problems, options);
  ASSERT_EQ(results.size(), problems.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_NEAR(results[i].response_time_ms,
                solve(problems[i], SolverKind::kFordFulkersonIncremental)
                    .response_time_ms,
                kTimeEps);
  }
}

}  // namespace
}  // namespace repflow::core
