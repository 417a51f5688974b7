// Micro-benchmarks (google-benchmark) of the Ford-Fulkerson and push-relabel
// engines on bipartite and layered synthetic networks, and of the worker
// pool's handoff.  Not a paper artifact; quantifies the engine building
// blocks behind Figures 5-10 and the heuristic ablations.
//
// The *_Reused and *_Pooled variants measure the zero-allocation solve path:
// a persistent engine (or SolverPool shell) is rebound/reused across
// iterations instead of reconstructed, so the steady-state iteration touches
// no heap.  Compare them against their fresh-construction twins.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "core/problem.h"
#include "core/solver.h"
#include "core/solver_pool.h"
#include "decluster/schemes.h"
#include "graph/ford_fulkerson.h"
#include "graph/generators.h"
#include "graph/push_relabel.h"
#include "parallel/worker_pool.h"
#include "support/rng.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

namespace {

using namespace repflow;
using graph::GeneratedNetwork;

GeneratedNetwork make_bipartite(std::int64_t buckets) {
  Rng rng(42);
  const auto disks = std::max<std::int32_t>(
      4, static_cast<std::int32_t>(buckets / 25));
  return graph::random_bipartite(static_cast<std::int32_t>(buckets), disks, 2,
                                 std::max<std::int64_t>(1, buckets / disks),
                                 rng);
}

GeneratedNetwork make_layered(std::int64_t width) {
  Rng rng(43);
  return graph::layered_network(8, static_cast<std::int32_t>(width), 50, rng);
}

void BM_FordFulkersonDfs_Bipartite(benchmark::State& state) {
  auto g = make_bipartite(state.range(0));
  for (auto _ : state) {
    graph::FordFulkerson engine(g.net, g.source, g.sink,
                                graph::SearchOrder::kDfs);
    benchmark::DoNotOptimize(engine.solve_from_zero().value);
  }
}
BENCHMARK(BM_FordFulkersonDfs_Bipartite)->Arg(100)->Arg(400)->Arg(1600);

void BM_FordFulkersonBfs_Bipartite(benchmark::State& state) {
  auto g = make_bipartite(state.range(0));
  for (auto _ : state) {
    graph::FordFulkerson engine(g.net, g.source, g.sink,
                                graph::SearchOrder::kBfs);
    benchmark::DoNotOptimize(engine.solve_from_zero().value);
  }
}
BENCHMARK(BM_FordFulkersonBfs_Bipartite)->Arg(100)->Arg(400)->Arg(1600);

void BM_PushRelabel_Bipartite(benchmark::State& state) {
  auto g = make_bipartite(state.range(0));
  for (auto _ : state) {
    graph::PushRelabel engine(g.net, g.source, g.sink);
    benchmark::DoNotOptimize(engine.solve_from_zero().value);
  }
}
BENCHMARK(BM_PushRelabel_Bipartite)->Arg(100)->Arg(400)->Arg(1600);

void BM_PushRelabel_NoHeuristics_Bipartite(benchmark::State& state) {
  auto g = make_bipartite(state.range(0));
  for (auto _ : state) {
    graph::PushRelabel engine(g.net, g.source, g.sink,
                              graph::HeightInit::kZero);
    benchmark::DoNotOptimize(engine.solve_from_zero().value);
  }
}
BENCHMARK(BM_PushRelabel_NoHeuristics_Bipartite)->Arg(100)->Arg(400);

void BM_PushRelabel_Layered(benchmark::State& state) {
  auto g = make_layered(state.range(0));
  for (auto _ : state) {
    graph::PushRelabel engine(g.net, g.source, g.sink);
    benchmark::DoNotOptimize(engine.solve_from_zero().value);
  }
}
BENCHMARK(BM_PushRelabel_Layered)->Arg(8)->Arg(32);

// --- Zero-allocation path: persistent engines rebound between runs --------

void BM_PushRelabel_Bipartite_Reused(benchmark::State& state) {
  auto g = make_bipartite(state.range(0));
  graph::PushRelabel engine(g.net, g.source, g.sink);
  for (auto _ : state) {
    engine.rebind(g.source, g.sink);
    benchmark::DoNotOptimize(engine.solve_from_zero().value);
  }
}
BENCHMARK(BM_PushRelabel_Bipartite_Reused)->Arg(100)->Arg(400)->Arg(1600);

void BM_FordFulkersonBfs_Bipartite_Reused(benchmark::State& state) {
  auto g = make_bipartite(state.range(0));
  graph::FordFulkerson engine(g.net, g.source, g.sink,
                              graph::SearchOrder::kBfs);
  for (auto _ : state) {
    engine.rebind(g.source, g.sink);
    benchmark::DoNotOptimize(engine.solve_from_zero().value);
  }
}
BENCHMARK(BM_FordFulkersonBfs_Bipartite_Reused)->Arg(100)->Arg(400);

// --- Solver level: fresh shell per query vs pooled shell ------------------

core::RetrievalProblem make_problem(std::int32_t disks, std::int64_t buckets) {
  Rng rng(44);
  core::RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = disks;
  p.system.cost_ms.assign(static_cast<std::size_t>(disks), 1.0);
  p.system.delay_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.init_load_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.model.assign(static_cast<std::size_t>(disks), "A");
  p.replicas.resize(static_cast<std::size_t>(buckets));
  for (auto& replica_set : p.replicas) {
    const std::size_t copies = 1 + rng.below(3);
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

void BM_SolverFresh_PushRelabelBinary(benchmark::State& state) {
  const auto problem = make_problem(16, state.range(0));
  for (auto _ : state) {
    core::PushRelabelBinarySolver solver;
    core::SolveResult result;
    solver.solve_into(problem, result);
    benchmark::DoNotOptimize(result.response_time_ms);
  }
}
BENCHMARK(BM_SolverFresh_PushRelabelBinary)->Arg(100)->Arg(400)->Arg(1600);

void BM_SolverPooled_PushRelabelBinary(benchmark::State& state) {
  const auto problem = make_problem(16, state.range(0));
  core::SolverPool pool(/*threads=*/1);
  core::SolveResult result;
  pool.solve_into(problem, core::SolverKind::kPushRelabelBinary, result);
  for (auto _ : state) {
    pool.solve_into(problem, core::SolverKind::kPushRelabelBinary, result);
    benchmark::DoNotOptimize(result.response_time_ms);
  }
}
BENCHMARK(BM_SolverPooled_PushRelabelBinary)->Arg(100)->Arg(400)->Arg(1600);

// Every other cell solves one problem over and over, which trains the
// branch predictor on that problem's flow state and hides what a
// data-dependent branch costs.  This one cycles 512 distinct seeded
// Experiment 5 problems (N = 10, orthogonal allocation, Load-2 range and
// arbitrary queries, a fresh system per problem: the shape of the serving
// benchmark's batch_burst) through one warm pool; the time is per solve.
void BM_SolverPooled_PushRelabelBinary_Distinct(benchmark::State& state) {
  constexpr std::int32_t kDisks = 10;
  constexpr std::size_t kProblems = 512;
  Rng rng(45);
  const auto allocation = decluster::make_orthogonal(
      kDisks, decluster::SiteMapping::kCopyPerSite);
  const workload::QueryGenerator range(kDisks, workload::QueryType::kRange,
                                       workload::LoadKind::kLoad2);
  const workload::QueryGenerator arbitrary(
      kDisks, workload::QueryType::kArbitrary, workload::LoadKind::kLoad2);
  std::vector<core::RetrievalProblem> problems;
  problems.reserve(kProblems);
  for (std::size_t i = 0; i < kProblems; ++i) {
    const workload::Query query =
        (rng.chance(0.5) ? range : arbitrary).next(rng);
    problems.push_back(core::build_problem(
        allocation, query, workload::make_experiment_system(5, kDisks, rng)));
  }
  core::SolverPool pool(/*threads=*/1);
  core::SolveResult result;
  for (const auto& problem : problems) {
    pool.solve_into(problem, core::SolverKind::kPushRelabelBinary, result);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    pool.solve_into(problems[next], core::SolverKind::kPushRelabelBinary,
                    result);
    benchmark::DoNotOptimize(result.response_time_ms);
    next = next + 1 == kProblems ? 0 : next + 1;
  }
}
BENCHMARK(BM_SolverPooled_PushRelabelBinary_Distinct);

void BM_SolverFresh_FordFulkersonIncremental(benchmark::State& state) {
  const auto problem = make_problem(16, state.range(0));
  for (auto _ : state) {
    core::FordFulkersonIncrementalSolver solver;
    core::SolveResult result;
    solver.solve_into(problem, result);
    benchmark::DoNotOptimize(result.response_time_ms);
  }
}
BENCHMARK(BM_SolverFresh_FordFulkersonIncremental)->Arg(100)->Arg(400);

void BM_SolverPooled_FordFulkersonIncremental(benchmark::State& state) {
  const auto problem = make_problem(16, state.range(0));
  core::SolverPool pool(/*threads=*/1);
  core::SolveResult result;
  pool.solve_into(problem, core::SolverKind::kFordFulkersonIncremental,
                  result);
  for (auto _ : state) {
    pool.solve_into(problem, core::SolverKind::kFordFulkersonIncremental,
                    result);
    benchmark::DoNotOptimize(result.response_time_ms);
  }
}
BENCHMARK(BM_SolverPooled_FordFulkersonIncremental)->Arg(100)->Arg(400);

// Back-to-back WorkerPool::run() of an empty job at `threads`: the handoff
// every Hong & He phase and every BatchSolver batch pays on top of its work.
void BM_WorkerPool_EmptyRun(benchmark::State& state) {
  parallel::WorkerPool pool(static_cast<int>(state.range(0)));
  const std::function<void(int)> job = [](int) {};
  for (auto _ : state) pool.run(job);
}
BENCHMARK(BM_WorkerPool_EmptyRun)->Arg(1)->Arg(2)->Arg(3)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
