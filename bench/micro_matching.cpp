// Micro-benchmarks (google-benchmark) of the Hopcroft-Karp b-matching
// kernel against the flow-network solvers it replaces.  Three families:
//
//   * BM_Pooled* — warm SolverPool solve_into on basic 16-disk problems at
//     |Q| in {100, 400, 1600}: the steady-state per-query cost a stream
//     scheduler pays.  Compare matching vs alg6 (PR-binary) vs alg2
//     (FF-incremental) at the same arg.
//   * BM_Fig7Cell* — one Experiment-1 workload cell per allocation scheme
//     (the Figure 7 basic-problem sweep), a batch of range/Load2 queries
//     solved back to back through a warm pool.
//   * BM_HighReplication* — adversarial dense shapes: every bucket
//     replicated on half the disk array, which maximizes layer-graph
//     density and phase count for the matching kernel while inflating the
//     arc count the network solvers must scan.
//   * BM_HotSlow* — 200 buckets per disk, each on c disks drawn with a
//     cubed-uniform skew toward low disk ids: a few hot disks fill up and
//     carry long slot lists, the shapes where the matching kernel lost to
//     Algorithm 6 before its per-disk scan cursor.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.h"
#include "core/solver.h"
#include "core/solver_pool.h"
#include "decluster/schemes.h"
#include "support/rng.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

namespace {

using namespace repflow;

/// `buckets` empty replica lists on `disks` unit-cost disks.
core::RetrievalProblem unit_shell(std::int32_t disks, std::int64_t buckets) {
  core::RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = disks;
  p.system.cost_ms.assign(static_cast<std::size_t>(disks), 1.0);
  p.system.delay_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.init_load_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.model.assign(static_cast<std::size_t>(disks), "A");
  p.replicas.resize(static_cast<std::size_t>(buckets));
  return p;
}

core::RetrievalProblem make_basic_problem(std::int32_t disks,
                                          std::int64_t buckets,
                                          std::size_t max_copies,
                                          std::uint64_t seed) {
  Rng rng(seed);
  core::RetrievalProblem p = unit_shell(disks, buckets);
  for (auto& replica_set : p.replicas) {
    const std::size_t copies = 1 + rng.below(max_copies);
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

/// Warm-pool steady state: one pooled solve per iteration.
void pooled_solve_loop(benchmark::State& state,
                       const core::RetrievalProblem& problem,
                       core::SolverKind kind) {
  core::SolverPool pool(/*threads=*/1);
  core::SolveResult result;
  pool.solve_into(problem, kind, result);  // warm the slot
  for (auto _ : state) {
    pool.solve_into(problem, kind, result);
    benchmark::DoNotOptimize(result.response_time_ms);
  }
}

void BM_Pooled_IntegratedMatching(benchmark::State& state) {
  pooled_solve_loop(state, make_basic_problem(16, state.range(0), 3, 44),
                    core::SolverKind::kIntegratedMatching);
}
BENCHMARK(BM_Pooled_IntegratedMatching)->Arg(100)->Arg(400)->Arg(1600);

void BM_Pooled_PushRelabelBinary(benchmark::State& state) {
  pooled_solve_loop(state, make_basic_problem(16, state.range(0), 3, 44),
                    core::SolverKind::kPushRelabelBinary);
}
BENCHMARK(BM_Pooled_PushRelabelBinary)->Arg(100)->Arg(400)->Arg(1600);

void BM_Pooled_FordFulkersonIncremental(benchmark::State& state) {
  pooled_solve_loop(state, make_basic_problem(16, state.range(0), 3, 44),
                    core::SolverKind::kFordFulkersonIncremental);
}
BENCHMARK(BM_Pooled_FordFulkersonIncremental)->Arg(100)->Arg(400);

// --- Figure 7 workload cells (Experiment 1, Range/Load2, N = 24) ----------

std::vector<core::RetrievalProblem> make_cell(decluster::Scheme scheme) {
  const std::int32_t n = 24;
  Rng rng(2012);
  const auto rep = decluster::make_scheme(scheme, n,
                                          decluster::SiteMapping::kCopyPerSite,
                                          rng);
  const auto sys = workload::make_experiment_system(1, n, rng);
  const workload::QueryGenerator gen(n, workload::QueryType::kRange,
                                     workload::LoadKind::kLoad2);
  std::vector<core::RetrievalProblem> problems;
  for (int i = 0; i < 20; ++i) {
    problems.push_back(core::build_problem(rep, gen.next(rng), sys));
  }
  return problems;
}

void cell_loop(benchmark::State& state, decluster::Scheme scheme,
               core::SolverKind kind) {
  const auto problems = make_cell(scheme);
  core::SolverPool pool(/*threads=*/1);
  core::SolveResult result;
  pool.solve_into(problems.front(), kind, result);
  for (auto _ : state) {
    double total = 0.0;
    for (const auto& problem : problems) {
      pool.solve_into(problem, kind, result);
      total += result.response_time_ms;
    }
    benchmark::DoNotOptimize(total);
  }
}

void BM_Fig7Cell_Rda_Matching(benchmark::State& state) {
  cell_loop(state, decluster::Scheme::kRda,
            core::SolverKind::kIntegratedMatching);
}
BENCHMARK(BM_Fig7Cell_Rda_Matching);

void BM_Fig7Cell_Rda_PushRelabelBinary(benchmark::State& state) {
  cell_loop(state, decluster::Scheme::kRda,
            core::SolverKind::kPushRelabelBinary);
}
BENCHMARK(BM_Fig7Cell_Rda_PushRelabelBinary);

void BM_Fig7Cell_Dependent_Matching(benchmark::State& state) {
  cell_loop(state, decluster::Scheme::kDependent,
            core::SolverKind::kIntegratedMatching);
}
BENCHMARK(BM_Fig7Cell_Dependent_Matching);

void BM_Fig7Cell_Dependent_PushRelabelBinary(benchmark::State& state) {
  cell_loop(state, decluster::Scheme::kDependent,
            core::SolverKind::kPushRelabelBinary);
}
BENCHMARK(BM_Fig7Cell_Dependent_PushRelabelBinary);

void BM_Fig7Cell_Orthogonal_Matching(benchmark::State& state) {
  cell_loop(state, decluster::Scheme::kOrthogonal,
            core::SolverKind::kIntegratedMatching);
}
BENCHMARK(BM_Fig7Cell_Orthogonal_Matching);

void BM_Fig7Cell_Orthogonal_PushRelabelBinary(benchmark::State& state) {
  cell_loop(state, decluster::Scheme::kOrthogonal,
            core::SolverKind::kPushRelabelBinary);
}
BENCHMARK(BM_Fig7Cell_Orthogonal_PushRelabelBinary);

// --- Adversarial high-replication shapes ----------------------------------

core::RetrievalProblem make_dense_problem(std::int64_t buckets) {
  // Every bucket on a random half of a 32-disk array: arc count 16 * |Q|,
  // many equivalent assignments.  The worst case for layer-graph size.
  return make_basic_problem(32, buckets, 16, 4242);
}

void BM_HighReplication_Matching(benchmark::State& state) {
  pooled_solve_loop(state, make_dense_problem(state.range(0)),
                    core::SolverKind::kIntegratedMatching);
}
BENCHMARK(BM_HighReplication_Matching)->Arg(200)->Arg(800);

void BM_HighReplication_PushRelabelBinary(benchmark::State& state) {
  pooled_solve_loop(state, make_dense_problem(state.range(0)),
                    core::SolverKind::kPushRelabelBinary);
}
BENCHMARK(BM_HighReplication_PushRelabelBinary)->Arg(200)->Arg(800);

// --- Hot-slow shapes --------------------------------------------------------

/// `disks` * 200 buckets, each on `copies` distinct disks drawn as
/// floor(disks * u^3); unit-cost disks, or Table IV Experiment 5's (two
/// sites of disks / 2).  Seed 4 is the first seed on which the rescanning
/// kernel lost to Algorithm 6 on all three shapes below (seed 1's 64 x 32
/// shape is solved by the greedy seed alone).
core::RetrievalProblem make_hot_slow_problem(std::int32_t disks,
                                             std::size_t copies,
                                             bool exp5_disks) {
  Rng rng(4);
  core::RetrievalProblem p = unit_shell(disks, std::int64_t{disks} * 200);
  for (auto& replica_set : p.replicas) {
    while (replica_set.size() < copies) {
      const double u = rng.uniform01();
      const auto d = static_cast<core::DiskId>(disks * u * u * u);
      bool seen = false;
      for (core::DiskId have : replica_set) seen = seen || have == d;
      if (!seen) replica_set.push_back(d);
    }
  }
  if (exp5_disks) {
    p.system = workload::make_experiment_system(5, disks / 2, rng);
  }
  p.validate();
  return p;
}

void BM_HotSlow_Matching(benchmark::State& state, std::int32_t disks,
                         std::size_t copies, bool exp5_disks) {
  pooled_solve_loop(state, make_hot_slow_problem(disks, copies, exp5_disks),
                    core::SolverKind::kIntegratedMatching);
}
BENCHMARK_CAPTURE(BM_HotSlow_Matching, d32_c8_unit, 32, 8, false);
BENCHMARK_CAPTURE(BM_HotSlow_Matching, d64_c16_exp5, 64, 16, true);
BENCHMARK_CAPTURE(BM_HotSlow_Matching, d64_c32_unit, 64, 32, false);

void BM_HotSlow_PushRelabelBinary(benchmark::State& state, std::int32_t disks,
                                  std::size_t copies, bool exp5_disks) {
  pooled_solve_loop(state, make_hot_slow_problem(disks, copies, exp5_disks),
                    core::SolverKind::kPushRelabelBinary);
}
BENCHMARK_CAPTURE(BM_HotSlow_PushRelabelBinary, d32_c8_unit, 32, 8, false);
BENCHMARK_CAPTURE(BM_HotSlow_PushRelabelBinary, d64_c16_exp5, 64, 16, true);
BENCHMARK_CAPTURE(BM_HotSlow_PushRelabelBinary, d64_c32_unit, 64, 32, false);

// --- --bench-json sidecar -------------------------------------------------

/// Console reporter that additionally collects per-benchmark real times and
/// mirrors them into the committed-baseline shape
/// (`{"micro_matching": {"real_time_ns": {...}}}`), so the table in
/// BENCH_matching.json regenerates mechanically from a run instead of being
/// hand-copied from console output.
class SidecarReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type == Run::RT_Iteration && !run.error_occurred) {
        // Default time unit is nanoseconds, so the adjusted real time is
        // already the real_time_ns value google-benchmark's own JSON emits.
        rows_.emplace_back(run.benchmark_name(), run.GetAdjustedRealTime());
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

  void write_sidecar(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "cannot write bench json %s\n", path.c_str());
      return;
    }
    std::fprintf(out, "{\n  \"bench\": \"micro_matching\",\n");
    std::fprintf(out, "  \"micro_matching\": {\n");
    std::fprintf(out, "    \"real_time_ns\": {\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(out, "      \"%s\": %.0f%s\n", rows_[i].first.c_str(),
                   rows_[i].second, i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(out, "    }\n  }\n}\n");
    std::fclose(out);
    std::printf("bench json: %s\n", path.c_str());
  }

 private:
  std::vector<std::pair<std::string, double>> rows_;
};

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): peel off --bench-json=<path>
// (not a google-benchmark flag) and pass everything else through untouched.
int main(int argc, char** argv) {
  const std::string prefix = "--bench-json=";
  std::string bench_json;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      bench_json = std::string(argv[i]).substr(prefix.size());
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                             passthrough.data())) {
    return 1;
  }
  SidecarReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!bench_json.empty()) reporter.write_sidecar(bench_json);
  benchmark::Shutdown();
  return 0;
}
