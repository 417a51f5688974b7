// Micro-benchmarks (google-benchmark) of the Ford-Fulkerson and push-relabel
// engines on bipartite and layered synthetic networks.  Not a paper
// artifact; quantifies the engine building blocks behind Figures 5-9 and
// the heuristic ablations.
//
// The *_Reused and *_Pooled variants measure the zero-allocation solve path:
// a persistent engine (or SolverPool shell) is rebound/reused across
// iterations instead of reconstructed, so the steady-state iteration touches
// no heap.  Compare them against their fresh-construction twins.
#include <benchmark/benchmark.h>

#include "core/problem.h"
#include "core/solver.h"
#include "core/solver_pool.h"
#include "graph/ford_fulkerson.h"
#include "graph/generators.h"
#include "graph/push_relabel.h"
#include "support/rng.h"

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
  graph::PushRelabelOptions options;
  options.height_init = graph::HeightInit::kZero;
  options.use_gap_heuristic = false;
  options.global_relabel_interval_factor = 0;
  for (auto _ : state) {
    graph::PushRelabel engine(g.net, g.source, g.sink, options);
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
  graph::MaxflowWorkspace workspace;
  graph::PushRelabel engine(g.net, g.source, g.sink,
                            graph::PushRelabelOptions{}, &workspace);
  for (auto _ : state) {
    engine.rebind(g.source, g.sink);
    benchmark::DoNotOptimize(engine.solve_from_zero().value);
  }
}
BENCHMARK(BM_PushRelabel_Bipartite_Reused)->Arg(100)->Arg(400)->Arg(1600);

void BM_FordFulkersonBfs_Bipartite_Reused(benchmark::State& state) {
  auto g = make_bipartite(state.range(0));
  graph::MaxflowWorkspace workspace;
  graph::FordFulkerson engine(g.net, g.source, g.sink,
                              graph::SearchOrder::kBfs, &workspace);
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
    core::PushRelabelBinarySolver solver(problem);
    benchmark::DoNotOptimize(solver.solve().response_time_ms);
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

void BM_SolverFresh_FordFulkersonIncremental(benchmark::State& state) {
  const auto problem = make_problem(16, state.range(0));
  for (auto _ : state) {
    core::FordFulkersonIncrementalSolver solver(problem);
    benchmark::DoNotOptimize(solver.solve().response_time_ms);
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

}  // namespace

BENCHMARK_MAIN();
