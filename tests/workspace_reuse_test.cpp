// Workspace-reuse guarantees of the zero-allocation solve path.
//
// Two properties, both acceptance criteria of the CSR/workspace refactor:
//  1. Steady state: the second and subsequent solve_into() calls through a
//     pooled solver perform ZERO heap allocations (proved by a counting
//     global operator new).  A warm query through QueryRouter allocates
//     only the schedule copies its event record needs.
//  2. Fidelity: a reused solver shell returns bit-identical SolveResults
//     to a freshly constructed solver, across the whole catalog.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/check.h"
#include "core/execution.h"
#include "core/router.h"
#include "core/solve.h"
#include "core/solver_pool.h"
#include "core/stream.h"
#include "decluster/schemes.h"
#include "obs/flight_recorder.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "support/rng.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

// ---------------------------------------------------------------------------
// Counting global allocator.  Counting is off by default so gtest / library
// bookkeeping outside the measured window is invisible; the test flips the
// flag around the steady-state calls only.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void note_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  note_alloc(size);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
namespace {
// Kept out of line: inlined into a caller, std::free would meet a pointer
// from operator new, and GCC 12 flags the pair (-Wmismatched-new-delete)
// without seeing that the operator new above is malloc.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
// ---------------------------------------------------------------------------

namespace repflow {
namespace {

using core::RetrievalProblem;
using core::SolveResult;
using core::SolverKind;

// Each of these holds an engine bound to its own network, so a copy or a
// move would leave the new object's engine driving the original's network.
template <typename T>
constexpr bool kPinned =
    !std::is_copy_constructible_v<T> && !std::is_move_constructible_v<T> &&
    !std::is_copy_assignable_v<T> && !std::is_move_assignable_v<T>;
static_assert(kPinned<core::FordFulkersonBasicSolver>);
static_assert(kPinned<core::FordFulkersonIncrementalSolver>);
static_assert(kPinned<core::PushRelabelIncrementalSolver>);
static_assert(kPinned<core::PushRelabelBinarySolver>);
static_assert(kPinned<core::ParallelPushRelabelBinarySolver>);
static_assert(kPinned<core::BlackBoxBinarySolver>);

// The whole catalog (generated from REPFLOW_SOLVER_CATALOG), so any new
// kind is automatically held to the zero-allocation and bit-identity bars.
constexpr auto& kCatalog = core::kAllSolverKinds;

/// Random *basic* problem (equal costs, zero delays/loads) so the whole
/// catalog, Algorithm 1 included, accepts it.
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

/// Random generalized problem (heterogeneous costs, nonzero delays/loads);
/// everything except Algorithm 1 accepts it.
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

/// One solve on a freshly constructed shell of `Solver`.
template <typename Solver, typename... Args>
SolveResult solve_once(const RetrievalProblem& problem, Args&&... args) {
  Solver solver(std::forward<Args>(args)...);
  SolveResult result;
  solver.solve_into(problem, result);
  return result;
}

/// One solve on a freshly constructed shell of `kind`.
SolveResult fresh_solve(const RetrievalProblem& problem, SolverKind kind) {
  switch (kind) {
    case SolverKind::kFordFulkersonBasic:
      return solve_once<core::FordFulkersonBasicSolver>(problem);
    case SolverKind::kFordFulkersonIncremental:
      return solve_once<core::FordFulkersonIncrementalSolver>(problem);
    case SolverKind::kPushRelabelIncremental:
      return solve_once<core::PushRelabelIncrementalSolver>(problem);
    case SolverKind::kPushRelabelBinary:
      return solve_once<core::PushRelabelBinarySolver>(problem);
    case SolverKind::kBlackBoxBinary:
      return solve_once<core::BlackBoxBinarySolver>(problem);
    case SolverKind::kParallelPushRelabelBinary:
      // threads = 1 keeps the discharge order (and thus the schedule)
      // deterministic for the bit-identical comparison.
      return solve_once<core::ParallelPushRelabelBinarySolver>(problem, 1);
    case SolverKind::kIntegratedMatching:
      return solve_once<core::IntegratedMatchingSolver>(problem);
  }
  return {};
}

void expect_identical(const SolveResult& fresh, const SolveResult& reused,
                      SolverKind kind, std::size_t index) {
  const std::string where = std::string(core::solver_id(kind)) +
                            " problem #" + std::to_string(index);
  // Bit-identical response time: the reused shell must walk the exact same
  // arithmetic, not merely land within an epsilon.
  EXPECT_EQ(fresh.response_time_ms, reused.response_time_ms) << where;
  EXPECT_EQ(fresh.schedule.assigned_disk, reused.schedule.assigned_disk)
      << where;
  EXPECT_EQ(fresh.schedule.per_disk_count, reused.schedule.per_disk_count)
      << where;
  EXPECT_EQ(fresh.capacity_steps, reused.capacity_steps) << where;
  EXPECT_EQ(fresh.binary_probes, reused.binary_probes) << where;
  EXPECT_EQ(fresh.maxflow_runs, reused.maxflow_runs) << where;
  EXPECT_EQ(fresh.flow_stats.augmentations, reused.flow_stats.augmentations)
      << where;
  EXPECT_EQ(fresh.flow_stats.pushes, reused.flow_stats.pushes) << where;
  EXPECT_EQ(fresh.flow_stats.relabels, reused.flow_stats.relabels) << where;
  EXPECT_EQ(fresh.flow_stats.global_relabels,
            reused.flow_stats.global_relabels)
      << where;
  EXPECT_EQ(fresh.flow_stats.gap_jumps, reused.flow_stats.gap_jumps) << where;
  EXPECT_EQ(fresh.flow_stats.dfs_visits, reused.flow_stats.dfs_visits)
      << where;
}

TEST(WorkspaceReuse, SecondAndLaterPooledSolvesAllocateNothing) {
#if REPFLOW_INVARIANTS_ENABLED
  GTEST_SKIP() << "REPFLOW_CHECK_INVARIANTS builds run allocation-light (not "
                  "allocation-free) checkers inside the solve seams; the "
                  "zero-allocation guarantee applies to release builds only";
#endif
  Rng rng(7001);
  // Same-footprint problem sequence, prebuilt so problem construction
  // stays outside the measured window.
  std::vector<RetrievalProblem> problems;
  for (int i = 0; i < 6; ++i) {
    problems.push_back(random_basic_problem(8, 24, rng));
  }

  for (SolverKind kind : kCatalog) {
    core::SolverPool pool(/*threads=*/1);
    SolveResult result;
    // Warm-up pass: the first solve of each problem builds the shell and
    // grows every buffer to the sequence's peak footprint.
    for (const RetrievalProblem& problem : problems) {
      pool.solve_into(problem, kind, result);
    }
    // Every shell reports a footprint (network, driver and engine
    // buffers), and a warm pass keeps exactly the one the warm-up grew.
    const std::size_t warm_bytes = pool.retained_bytes();
    EXPECT_GT(warm_bytes, 0u) << core::solver_id(kind);

    // Steady-state pass over the same problems must not touch the heap.
    g_alloc_count.store(0);
    g_alloc_bytes.store(0);
    g_count_allocs.store(true);
    for (const RetrievalProblem& problem : problems) {
      pool.solve_into(problem, kind, result);
    }
    g_count_allocs.store(false);

    EXPECT_EQ(g_alloc_count.load(), 0u)
        << core::solver_id(kind) << ": " << g_alloc_count.load()
        << " steady-state allocations (" << g_alloc_bytes.load()
        << " bytes)";
    EXPECT_EQ(pool.retained_bytes(), warm_bytes) << core::solver_id(kind);
    EXPECT_GT(result.response_time_ms, 0.0);
  }
}

TEST(WorkspaceReuse, PooledResultsBitIdenticalToFreshSolversBasic) {
  Rng rng(7002);
  std::vector<RetrievalProblem> problems;
  for (int i = 0; i < 8; ++i) {
    problems.push_back(
        random_basic_problem(4 + static_cast<std::int32_t>(rng.below(6)),
                             6 + static_cast<std::int64_t>(rng.below(20)),
                             rng));
  }
  for (SolverKind kind : kCatalog) {
    core::SolverPool pool(/*threads=*/1);
    SolveResult reused;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      pool.solve_into(problems[i], kind, reused);
      expect_identical(fresh_solve(problems[i], kind), reused, kind, i);
    }
  }
}

TEST(WorkspaceReuse, PooledResultsBitIdenticalToFreshSolversGeneralized) {
  Rng rng(7003);
  std::vector<RetrievalProblem> problems;
  for (int i = 0; i < 8; ++i) {
    problems.push_back(
        random_general_problem(3 + static_cast<std::int32_t>(rng.below(6)),
                               5 + static_cast<std::int64_t>(rng.below(18)),
                               rng));
  }
  for (SolverKind kind : kCatalog) {
    if (kind == SolverKind::kFordFulkersonBasic) continue;  // basic-only
    core::SolverPool pool(/*threads=*/1);
    SolveResult reused;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      pool.solve_into(problems[i], kind, reused);
      expect_identical(fresh_solve(problems[i], kind), reused, kind, i);
    }
  }
}

// The serving path around the solve: a warm query through QueryRouter
// (pass-through) and the stream scheduler reuses the scheduler's pooled
// problem, so it allocates only its event's schedule (two vectors), copied
// once into the event log and once into the returned event.  The log's own
// doubling is counted apart.  Section VI shapes: two sites of 10 disks, an
// orthogonal allocation, Exp 5 disks and Load-2 range and arbitrary
// queries.
TEST(WorkspaceReuse, WarmStreamQueryAllocatesOnlyItsEvent) {
#if REPFLOW_INVARIANTS_ENABLED
  GTEST_SKIP() << "REPFLOW_CHECK_INVARIANTS builds run allocation-light (not "
                  "allocation-free) checkers inside the solve seams";
#endif
  const std::int32_t n = 10;
  const auto rep =
      decluster::make_orthogonal(n, decluster::SiteMapping::kCopyPerSite);
  Rng rng(7006);
  core::QueryStreamScheduler scheduler(
      rep, workload::make_experiment_system(5, n, rng),
      core::ExecutionPolicy{});
  core::QueryRouter router(scheduler, core::RouterOptions{});
  const workload::QueryGenerator range(n, workload::QueryType::kRange,
                                       workload::LoadKind::kLoad2);
  const workload::QueryGenerator arbitrary(
      n, workload::QueryType::kArbitrary, workload::LoadKind::kLoad2);
  std::vector<workload::Query> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back((i % 2 == 0 ? range : arbitrary).next(rng));
  }
  double at = 0.0;
  const auto submit = [&](std::size_t i) {
    at += 20.0 * (0.5 + rng.uniform01());
    return router.submit(queries[i % queries.size()], at).merged;
  };
  for (std::size_t i = 0; i < 4 * queries.size(); ++i) submit(i);

  const std::size_t timed = 1000;
  std::uint64_t log_growths = 0;
  std::int64_t served = 0;
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (std::size_t i = 0; i < timed; ++i) {
    const std::size_t capacity = scheduler.events().capacity();
    served += submit(i);
    log_growths += scheduler.events().capacity() != capacity ? 1 : 0;
  }
  g_count_allocs.store(false);

  EXPECT_EQ(served, static_cast<std::int64_t>(timed));
  const double per_query =
      static_cast<double>(g_alloc_count.load() - log_growths) /
      static_cast<double>(timed);
  EXPECT_LE(per_query, 4.0) << g_alloc_count.load() << " allocations ("
                            << log_growths << " event-log growths) over "
                            << timed << " warm queries";
}

// Exporter-attached variant: the live telemetry tier (flight recorder,
// per-disk accounting, windowed exporter) must not cost the solve path its
// zero-allocation guarantee.  The exporter runs with a very long tick
// interval so its background threads are parked during the counted window;
// what is measured is the instrumented ExecutionContext path itself —
// kSolve flight events, the per-disk busy_ms/assigned_buckets fold,
// and histogram observations — all of which must be pre-warmed handle
// writes only.
TEST(WorkspaceReuse, InstrumentedSolvePathAllocatesNothingWithExporter) {
#if REPFLOW_INVARIANTS_ENABLED
  GTEST_SKIP() << "REPFLOW_CHECK_INVARIANTS builds run allocation-light (not "
                  "allocation-free) checkers inside the solve seams";
#endif
  Rng rng(7005);
  std::vector<RetrievalProblem> problems;
  for (int i = 0; i < 6; ++i) {
    problems.push_back(random_general_problem(8, 24, rng));
  }

  obs::HttpExporterOptions eopts;
  eopts.tick_interval_ms = 3600.0 * 1000.0;  // parked during the window
  obs::HttpExporter exporter(eopts);
  const bool serving = exporter.start();  // binding may be sandboxed away

  {
    core::ExecutionContext ctx;
    obs::QueryScope scope(obs::FlightRecorder::global().next_query_id());
    // Warm-up: resolves the per-disk instrument slots, the per-kind metric
    // bundles, and every workspace buffer; flight-recorder slots are
    // preallocated at construction.
    for (const RetrievalProblem& problem : problems) {
      ctx.solve_into(problem, ctx.scratch());
    }

    g_alloc_count.store(0);
    g_alloc_bytes.store(0);
    g_count_allocs.store(true);
    for (const RetrievalProblem& problem : problems) {
      ctx.solve_into(problem, ctx.scratch());
    }
    g_count_allocs.store(false);

    EXPECT_EQ(g_alloc_count.load(), 0u)
        << g_alloc_count.load() << " steady-state allocations ("
        << g_alloc_bytes.load() << " bytes) with the exporter attached";
    EXPECT_GT(ctx.scratch().response_time_ms, 0.0);
  }
  // The instrumentation genuinely ran: the fold touched the disk series
  // (a kill-switch snapshot lists nothing).
  EXPECT_EQ(obs::Registry::global().snapshot().accumulations.count(
                "disk.0.busy_ms"),
            obs::kEnabled ? 1u : 0u);
  if (serving) exporter.stop();
}

// Telemetry records nothing under the obs kill switch; the reuse behaviour
// itself is still covered by the allocation and bit-identity tests above.
TEST(WorkspaceReuse, PoolPublishesReuseTelemetry) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "kill switch: no series";
  auto& reg = obs::Registry::global();
  obs::Counter& rebuilds = reg.counter("workspace.rebuilds");
  obs::Gauge& retained = reg.gauge("workspace.retained_bytes");
  const std::uint64_t rebuilds_before = rebuilds.value();

  Rng rng(7004);
  const RetrievalProblem problem = random_basic_problem(6, 12, rng);
  core::SolverPool pool(1);
  SolveResult result;
  pool.solve_into(problem, SolverKind::kPushRelabelBinary, result);
  EXPECT_EQ(rebuilds.value(), rebuilds_before + 1);
  // Reuse shows as rebuilds staying flat while the solves go on.
  pool.solve_into(problem, SolverKind::kPushRelabelBinary, result);
  pool.solve_into(problem, SolverKind::kPushRelabelBinary, result);
  EXPECT_EQ(rebuilds.value(), rebuilds_before + 1);
  EXPECT_GT(retained.value(), 0.0);
  EXPECT_EQ(static_cast<std::size_t>(retained.value()),
            pool.retained_bytes());
}

}  // namespace
}  // namespace repflow
