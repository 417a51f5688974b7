// Extension bench: inter-query vs intra-query parallelism.
//
// Section V parallelizes within one max-flow; storage arrays with many
// concurrent queries can instead parallelize across queries (core/batch.h).
// This bench times both on the same batch, per thread count.  On a 1-core
// host both document overhead; on real multi-core arrays the inter-query
// axis typically scales linearly while intra-query is graph-limited
// (the fluctuation of the paper's Figure 10).
#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "core/batch.h"
#include "support/rng.h"
#include "support/timing.h"
#include "workload/experiments.h"

int main(int argc, char** argv) {
  using namespace repflow;
  repflow::CliFlags extra;
  extra.define("disks", "24", "disks per site");
  extra.define("batch", "24", "queries per batch");
  const bench::SweepConfig config = bench::parse_sweep(
      argc, argv, "batch bench: inter-query vs intra-query parallelism",
      &extra);
  const auto n = static_cast<std::int32_t>(extra.get_int("disks"));
  const auto batch = static_cast<std::int32_t>(extra.get_int("batch"));
  bench::print_banner("Extension: inter- vs intra-query parallelism", config);
  CsvWriter csv(config.csv);
  csv.write_header({"mode", "threads", "total_ms", "speedup"});

  Rng rng(config.seed);
  const auto rep =
      decluster::make_orthogonal(n, decluster::SiteMapping::kCopyPerSite);
  const auto sys = workload::make_experiment_system(5, n, rng);
  const workload::QueryGenerator gen(n, workload::QueryType::kArbitrary,
                                     workload::LoadKind::kLoad1);
  std::vector<core::RetrievalProblem> problems;
  for (std::int32_t i = 0; i < batch; ++i) {
    problems.push_back(core::build_problem(rep, gen.next(rng), sys));
  }

  TablePrinter table({"mode", "threads", "batch total (ms)", "vs 1-thread"});
  double base_ms = 0.0;
  for (int threads : {1, 2, 4}) {
    // Inter-query: distribute whole problems over threads.
    {
      StopWatch sw;
      sw.start();
      // Algorithm 6 with one thread per solve, so both row kinds run the
      // same algorithm.
      core::BatchOptions options;
      options.threads = threads;
      options.policy = core::ExecutionPolicy::pinned(
          core::SolverKind::kPushRelabelBinary, /*threads=*/1);
      auto results = core::solve_batch(problems, options);
      sw.stop();
      (void)results;
      if (threads == 1) base_ms = sw.elapsed_ms();
      table.add_row({"inter-query", std::to_string(threads),
                     format_double(sw.elapsed_ms(), 2),
                     format_double(base_ms / sw.elapsed_ms(), 2)});
      csv.write_row({"inter", std::to_string(threads),
                     format_double(sw.elapsed_ms(), 4),
                     format_double(base_ms / sw.elapsed_ms(), 4)});
    }
    // Intra-query: the Section V engine inside each sequentially-processed
    // query.
    {
      StopWatch sw;
      sw.start();
      for (const auto& p : problems) {
        core::solve(p, core::SolverKind::kParallelPushRelabelBinary, threads);
      }
      sw.stop();
      table.add_row({"intra-query (Sec V)", std::to_string(threads),
                     format_double(sw.elapsed_ms(), 2),
                     format_double(base_ms / sw.elapsed_ms(), 2)});
      csv.write_row({"intra", std::to_string(threads),
                     format_double(sw.elapsed_ms(), 4),
                     format_double(base_ms / sw.elapsed_ms(), 4)});
    }
  }
  table.print(std::cout);
  bench::maybe_write_metrics_sidecar(config);
  return 0;
}
