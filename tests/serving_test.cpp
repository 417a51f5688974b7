// Tests for the serving layer: ExecutionPolicy / ExecutionContext (the
// default and pinned kinds, facade parity, live engine-work counters), the
// admission-controlled QueryRouter (shed / coalesce semantics and
// merged-load exactness), batched capacity stepping, and BatchSolver
// error-path hardening.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/execution.h"
#include "core/router.h"
#include "core/solve.h"
#include "core/stream.h"
#include "decluster/schemes.h"
#include "obs/metrics.h"
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
  p.replicas = {all, all};  // every bucket on every disk
  p.validate();
  return p;
}

TEST(ExecutionPolicy, DefaultServesMatching) {
  ExecutionContext context;  // ExecutionPolicy{}
  EXPECT_EQ(context.select(sparse_problem()), SolverKind::kIntegratedMatching);
  EXPECT_EQ(context.select(dense_problem()), SolverKind::kIntegratedMatching);
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
    context.solve_into(problem, context.scratch());
    const SolveResult& via_context = context.scratch();
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

std::uint64_t counter_in_snapshot(const char* name) {
  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

TEST(ExecutionContext, LiveSnapshotSeesEngineWork) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "kill switch: no series";
  // graph.* is folded once per solve, so a scrape taken while the context
  // and its pooled engines are alive already holds every operation.
  const char* const names[] = {"graph.augmentations", "graph.pushes",
                               "graph.relabels",      "graph.global_relabels",
                               "graph.gap_jumps",     "graph.dfs_visits"};
  std::vector<std::uint64_t> before;
  for (const char* name : names) before.push_back(counter_in_snapshot(name));
  ExecutionContext context(
      ExecutionPolicy::pinned(SolverKind::kPushRelabelBinary));
  graph::FlowStats total;
  Rng rng(31);
  for (int i = 0; i < 6; ++i) {
    RetrievalProblem p;
    p.system = uniform_system(8, 1.0);
    for (std::size_t d = 0; d < 8; ++d) {
      p.system.cost_ms[d] = 1.0 + static_cast<double>(rng.below(5));
    }
    for (int b = 0; b < 40; ++b) {
      const auto picks = rng.sample_without_replacement(8, 2);
      p.replicas.push_back({picks.begin(), picks.end()});
    }
    p.validate();
    SolveResult result;
    context.solve_into(p, result);
    total += result.flow_stats;
    context.solve_into(p, SolverKind::kIntegratedMatching, result);
    total += result.flow_stats;
  }
  ASSERT_GT(total.pushes, 0u);
  ASSERT_GT(total.augmentations, 0u);
  const std::uint64_t expected[] = {total.augmentations,  total.pushes,
                                    total.relabels,       total.global_relabels,
                                    total.gap_jumps,      total.dfs_visits};
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(counter_in_snapshot(names[i]) - before[i], expected[i])
        << names[i];
  }
}

TEST(SolveFacade, SequentialKindsKeepThePooledParallelEngine) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "kill switch: no series";
  // The thread count only configures the parallel kind: alternating it
  // with a sequential kind must not tear down and rebuild the pooled
  // Hong & He engine (and its worker threads) on every call.
  const RetrievalProblem p = sparse_problem();
  const std::uint64_t before = counter_in_snapshot("workspace.rebuilds");
  std::thread([&p] {  // a fresh thread_local facade context
    for (int i = 0; i < 5; ++i) {
      solve(p, SolverKind::kPushRelabelBinary, 1);
      solve(p, SolverKind::kParallelPushRelabelBinary, 2);
    }
  }).join();
  // One shell per kind.
  EXPECT_EQ(counter_in_snapshot("workspace.rebuilds") - before, 2u);
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

// --- QueryStreamScheduler::stats ---

TEST(StreamStats, SummariesAreExact) {
  // 101 one-block queries reach one disk (C = 1 ms) at t = 0, so query i
  // waits i ms behind the ones before it and responds at i + 1 ms: the
  // waits are 0..100 and the responses 1..101, in every build.
  QueryStreamScheduler stream(uniform_system(1, 1.0), ExecutionPolicy{});
  for (int i = 0; i < 101; ++i) stream.submit_replicas({{0}}, 0.0);
  const StreamStats stats = stream.stats();
  EXPECT_EQ(stats.queries, 101);
  EXPECT_EQ(stats.makespan_ms, 101.0);
  const struct {
    const char* name;
    const Summary& summary;
    double offset;
  } series[] = {{"queue wait", stats.queue_wait, 0.0},
                {"response", stats.response_time, 1.0}};
  for (const auto& [name, s, offset] : series) {
    EXPECT_EQ(s.count, 101u) << name;
    EXPECT_EQ(s.min, offset) << name;
    EXPECT_EQ(s.mean, 50.0 + offset) << name;
    EXPECT_EQ(s.median, 50.0 + offset) << name;
    EXPECT_EQ(s.p95, 95.0 + offset) << name;
    EXPECT_EQ(s.p99, 99.0 + offset) << name;
    EXPECT_EQ(s.max, 100.0 + offset) << name;
  }
  // Solver wall times are not known in advance, but the summary holds one
  // per query and its max is the event log's.
  double max_solve = 0.0;
  for (const StreamEvent& e : stream.events()) {
    max_solve = std::max(max_solve, e.solve_ms);
  }
  EXPECT_EQ(stats.solve_time.count, 101u);
  EXPECT_EQ(stats.solve_time.max, max_solve);
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
  QueryStreamScheduler routed(f.rep, f.sys, ExecutionPolicy{});
  QueryStreamScheduler direct(f.rep, f.sys, ExecutionPolicy{});
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
  QueryStreamScheduler scheduler(f.rep, f.sys, ExecutionPolicy{});
  RouterOptions options;
  options.mode = AdmissionMode::kShed;
  options.max_backlog_ms = 10.0;
  QueryRouter router(scheduler, options);
  obs::Counter& shed_counter = obs::Registry::global().counter("router.shed");
  const std::uint64_t shed_before = shed_counter.value();
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
  // With the kill switch off the router counts nothing.
  EXPECT_EQ(shed_counter.value() - shed_before,
            obs::kEnabled ? static_cast<std::uint64_t>(shed) : 0u);
}

TEST(QueryRouter, CoalescedBatchMatchesDirectMergedSubmission) {
  StreamFixture f;
  QueryStreamScheduler routed(f.rep, f.sys, ExecutionPolicy{});
  QueryStreamScheduler mirror(f.rep, f.sys, ExecutionPolicy{});
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
  QueryStreamScheduler scheduler(f.rep, f.sys, ExecutionPolicy{});
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
  QueryStreamScheduler scheduler(f.rep, f.sys, ExecutionPolicy{});
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
  QueryStreamScheduler scheduler(f.rep, f.sys, ExecutionPolicy{});
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
  // Replay-mode scheduler: replica-list submission must work (through the
  // router too), bucket-id submission must throw in both layers.
  QueryStreamScheduler scheduler(f.sys, ExecutionPolicy{});
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

// Every threshold is compared with `>`, so a NaN one would switch its bound
// off without a word (kShed with a NaN backlog threshold shed nothing).
TEST(QueryRouter, RejectsNaNAndNegativeThresholds) {
  StreamFixture f;
  QueryStreamScheduler scheduler(f.rep, f.sys, ExecutionPolicy{});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double RouterOptions::*field :
       {&RouterOptions::max_backlog_ms, &RouterOptions::max_coalesce_age_ms,
        &RouterOptions::latency_budget_ms}) {
    for (const double bad : {nan, -nan, -1.0, -inf}) {
      RouterOptions options;
      options.mode = AdmissionMode::kShed;
      options.*field = bad;
      EXPECT_THROW(QueryRouter router(scheduler, options),
                   std::invalid_argument);
    }
    for (const double good : {0.0, inf}) {
      RouterOptions options;
      options.mode = AdmissionMode::kShed;
      options.*field = good;
      EXPECT_NO_THROW(QueryRouter router(scheduler, options));
    }
  }
}

// --- Rejected arrivals ---
//
// An arrival the stack rejects must leave router and scheduler exactly as
// they were: every later event matches, bit for bit, a stack that never saw
// it.  Query ids come from the process-wide flight recorder and solve_ms is
// wall time, so neither is compared.

using ReplicaLists = std::vector<std::vector<DiskId>>;

void expect_same_event(const StreamEvent& got, const StreamEvent& want) {
  EXPECT_EQ(got.arrival_ms, want.arrival_ms);
  EXPECT_EQ(got.response_ms, want.response_ms);
  EXPECT_EQ(got.completion_ms, want.completion_ms);
  EXPECT_EQ(got.max_initial_load_ms, want.max_initial_load_ms);
  EXPECT_EQ(got.buckets, want.buckets);
  EXPECT_EQ(got.schedule.assigned_disk, want.schedule.assigned_disk);
  EXPECT_EQ(got.schedule.per_disk_count, want.schedule.per_disk_count);
}

void expect_same_outcome(const RouterOutcome& got, const RouterOutcome& want) {
  EXPECT_EQ(got.decision, want.decision);
  EXPECT_EQ(got.backlog_ms, want.backlog_ms);
  EXPECT_EQ(got.merged, want.merged);
  ASSERT_EQ(got.event.has_value(), want.event.has_value());
  if (got.event) expect_same_event(*got.event, *want.event);
}

void expect_same_stats(const RouterStats& got, const RouterStats& want) {
  EXPECT_EQ(got.arrivals, want.arrivals);
  EXPECT_EQ(got.admitted, want.admitted);
  EXPECT_EQ(got.shed, want.shed);
  EXPECT_EQ(got.coalesced, want.coalesced);
  EXPECT_EQ(got.flushes, want.flushes);
  EXPECT_EQ(got.max_pending, want.max_pending);
}

TEST(RejectedArrival, StreamKeepsItsClock) {
  // Disk 7 does not exist on 2 disks.  The rejected arrival at 10 must not
  // move the clock: a valid one at 7 is served as on a fresh scheduler.
  const workload::SystemConfig sys = uniform_system(2, 1.0);
  QueryStreamScheduler fresh(sys, ExecutionPolicy{});
  QueryStreamScheduler scheduler(sys, ExecutionPolicy{});
  EXPECT_THROW(scheduler.submit_replicas({{7}}, 10.0), std::invalid_argument);
  const StreamEvent first = scheduler.submit_replicas({{0}}, 7.0);
  EXPECT_EQ(first.response_ms, 1.0);
  expect_same_event(first, fresh.submit_replicas({{0}}, 7.0));
  EXPECT_THROW(scheduler.submit_replicas({{0}, {}}, 9.0),
               std::invalid_argument);
  for (const auto& [replicas, at] :
       std::vector<std::pair<ReplicaLists, double>>{
           {{{0, 1}, {0}, {1}}, 7.5}, {{{1}, {1}}, 12.0}}) {
    expect_same_event(scheduler.submit_replicas(replicas, at),
                      fresh.submit_replicas(replicas, at));
  }
  EXPECT_EQ(scheduler.events().size(), fresh.events().size());
}

TEST(RejectedArrival, StreamKeepsItsClockOnBucketIds) {
  StreamFixture f;
  QueryStreamScheduler fresh(f.rep, f.sys, ExecutionPolicy{});
  QueryStreamScheduler scheduler(f.rep, f.sys, ExecutionPolicy{});
  const workload::Query outside = {f.rep.grid_n() * f.rep.grid_n()};
  EXPECT_THROW(scheduler.submit(outside, 10.0), std::invalid_argument);
  for (const double at : {7.0, 8.0, 30.0}) {
    const auto query = f.gen.next(f.rng);
    expect_same_event(scheduler.submit(query, at), fresh.submit(query, at));
  }
}

TEST(RejectedArrival, RouterKeepsBothClocks) {
  const workload::SystemConfig sys = uniform_system(2, 1.0);
  QueryStreamScheduler routed(sys, ExecutionPolicy{});
  QueryStreamScheduler mirror(sys, ExecutionPolicy{});
  QueryRouter router(routed, RouterOptions{});
  QueryRouter fresh(mirror, RouterOptions{});
  EXPECT_THROW(router.submit_replicas({{7}}, 10.0), std::invalid_argument);
  for (const auto& [replicas, at] :
       std::vector<std::pair<ReplicaLists, double>>{
           {{{0}}, 7.0}, {{{0, 1}, {0}, {1}}, 7.5}, {{{1}, {1}}, 12.0}}) {
    expect_same_outcome(router.submit_replicas(replicas, at),
                        fresh.submit_replicas(replicas, at));
  }
  expect_same_stats(router.stats(), fresh.stats());
}

TEST(RejectedArrival, CoalesceBufferKeepsItsQueries) {
  // One admitted query loads both disks past the threshold; later arrivals
  // at t = 0 are buffered, two to a batch.  The bad list must be refused
  // before it joins the buffer, so the valid query beside it still rides
  // the next flush.
  const workload::SystemConfig sys = uniform_system(2, 1.0);
  RouterOptions options;
  options.mode = AdmissionMode::kCoalesce;
  options.max_backlog_ms = 0.5;
  options.max_coalesce = 2;
  QueryStreamScheduler routed(sys, ExecutionPolicy{});
  QueryStreamScheduler mirror(sys, ExecutionPolicy{});
  QueryRouter router(routed, options);
  QueryRouter fresh(mirror, options);
  const std::vector<std::pair<ReplicaLists, double>> before = {
      {{{0, 1}, {0, 1}}, 0.0}, {{{0}}, 0.0}};
  for (const auto& [replicas, at] : before) {
    expect_same_outcome(router.submit_replicas(replicas, at),
                        fresh.submit_replicas(replicas, at));
  }
  ASSERT_EQ(router.pending(), 1u);
  EXPECT_THROW(router.submit_replicas({{7}}, 0.0), std::invalid_argument);
  EXPECT_THROW(router.submit_replicas({{1}, {}}, 0.0), std::invalid_argument);
  EXPECT_EQ(router.pending(), 1u);
  const std::vector<std::pair<ReplicaLists, double>> after = {
      {{{1}}, 0.0}, {{{0}, {1}}, 10.0}};
  for (const auto& [replicas, at] : after) {
    const RouterOutcome got = router.submit_replicas(replicas, at);
    expect_same_outcome(got, fresh.submit_replicas(replicas, at));
  }
  expect_same_stats(router.stats(), fresh.stats());
  EXPECT_EQ(router.pending(), 0u);
}

TEST(RejectedArrival, NonFiniteArrivalLeavesStreamAndRouterAsTheyWere) {
  // Three blocks keep disk 0 busy until 3.  A NaN or infinite arrival must
  // be refused without touching the clock or the busy horizon: the backlog
  // at 1 is still 2, and a query at 0.5 still waits for it (response 3.5).
  const workload::SystemConfig sys = uniform_system(2, 1.0);
  const double kInf = std::numeric_limits<double>::infinity();
  const double non_finite[] = {std::numeric_limits<double>::quiet_NaN(),
                               kInf, -kInf};
  const ReplicaLists busy = {{0}, {0}, {0}};

  QueryStreamScheduler fresh(sys, ExecutionPolicy{});
  QueryStreamScheduler scheduler(sys, ExecutionPolicy{});
  expect_same_event(scheduler.submit_replicas(busy, 0.0),
                    fresh.submit_replicas(busy, 0.0));
  for (const double at : non_finite) {
    EXPECT_THROW(scheduler.submit_replicas({{0}}, at), std::invalid_argument)
        << at;
  }
  EXPECT_EQ(scheduler.disk_free_at(0), 3.0);
  EXPECT_EQ(scheduler.max_backlog_at(1.0), 2.0);
  const StreamEvent later = scheduler.submit_replicas({{0}}, 0.5);
  EXPECT_EQ(later.response_ms, 3.5);
  expect_same_event(later, fresh.submit_replicas({{0}}, 0.5));
  EXPECT_EQ(scheduler.events().size(), fresh.events().size());

  QueryStreamScheduler routed(sys, ExecutionPolicy{});
  QueryStreamScheduler mirror(sys, ExecutionPolicy{});
  QueryRouter router(routed, RouterOptions{});
  QueryRouter fresh_router(mirror, RouterOptions{});
  expect_same_outcome(router.submit_replicas(busy, 0.0),
                      fresh_router.submit_replicas(busy, 0.0));
  for (const double at : non_finite) {
    EXPECT_THROW(router.submit_replicas({{0}}, at), std::invalid_argument)
        << at;
    EXPECT_THROW(router.flush(at), std::invalid_argument) << at;
  }
  // The router's clock stayed at 0, so an earlier arrival is still refused.
  EXPECT_THROW(router.submit_replicas({{0}}, -1.0), std::invalid_argument);
  expect_same_outcome(router.submit_replicas({{0}}, 0.5),
                      fresh_router.submit_replicas({{0}}, 0.5));
  expect_same_stats(router.stats(), fresh_router.stats());
}

TEST(RejectedArrival, InfiniteCompletionLeavesTheStreamAsItWas) {
  // Two blocks at C = 1e308 finish at +inf.  The facade returns that
  // optimum, but as a busy horizon it would fail every later query, so the
  // stream refuses it and keeps its clock, horizon and event log.
  workload::SystemConfig sys = uniform_system(2, 1.0);
  sys.cost_ms[0] = 1e308;
  RetrievalProblem overflow;
  overflow.system = sys;
  overflow.replicas = {{0}, {0}};
  overflow.validate();
  EXPECT_EQ(solve(overflow, SolverKind::kIntegratedMatching).response_time_ms,
            std::numeric_limits<double>::infinity());

  QueryStreamScheduler fresh(sys, ExecutionPolicy{});
  QueryStreamScheduler scheduler(sys, ExecutionPolicy{});
  EXPECT_THROW(scheduler.submit_replicas(overflow.replicas, 1.0),
               std::invalid_argument);
  EXPECT_TRUE(scheduler.events().empty());
  EXPECT_EQ(scheduler.disk_free_at(0), 0.0);
  EXPECT_EQ(scheduler.max_backlog_at(0.0), 0.0);
  for (const auto& [replicas, at] :
       std::vector<std::pair<ReplicaLists, double>>{
           {{{1}, {1}}, 0.5}, {{{0}, {1}}, 2.0}}) {
    expect_same_event(scheduler.submit_replicas(replicas, at),
                      fresh.submit_replicas(replicas, at));
  }
  EXPECT_EQ(scheduler.events().size(), fresh.events().size());
}

TEST(RejectedArrival, ThrowingFlushReArmsTheBuffer) {
  // The merged query puts two blocks at C = 1e308 on disk 0, which finish
  // at +inf, so the stream refuses the flush's solve.  The buffer is
  // emptied before the solve, and neither clock moves.
  workload::SystemConfig sys = uniform_system(2, 1.0);
  sys.cost_ms[0] = 1e308;
  RouterOptions options;
  options.mode = AdmissionMode::kCoalesce;
  options.max_backlog_ms = 0.5;
  QueryStreamScheduler scheduler(sys, ExecutionPolicy{});
  QueryRouter router(scheduler, options);
  router.submit_replicas({{1}, {1}}, 0.0);
  ASSERT_EQ(router.submit_replicas({{0}, {0}}, 1.0).decision,
            RouterDecision::kCoalesced);
  EXPECT_THROW(router.flush(2.0), std::invalid_argument);
  EXPECT_EQ(router.pending(), 0u);
  EXPECT_EQ(router.stats().flushes, 0);
  EXPECT_EQ(router.flush(1.0), std::nullopt);  // the clock stayed at 1
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

}  // namespace
}  // namespace repflow::core
