// Ablation bench for the design choices DESIGN.md calls out:
//   1. flow conservation        (integrated Alg 6 vs black box [12])
//   2. binary capacity scaling  (Alg 6 vs Alg 5, which increments only)
//   3. push-relabel heuristics  (exact heights + gap vs the paper's
//                                plain zero-height re-initialization)
// Workload: Experiment 5, Orthogonal allocation, Arbitrary/Load 2 — the
// paper's hardest configuration.  --verify requires every column to return
// the same optimal response time on every query; --check runs the
// invariant suite on every result (exit 3 on violation).
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <utility>

#include "analysis/schedule_invariants.h"
#include "bench/common.h"
#include "core/black_box.h"
#include "core/push_relabel_binary.h"
#include "core/push_relabel_incremental.h"
#include "support/rng.h"
#include "support/timing.h"
#include "workload/experiments.h"

namespace {

using namespace repflow;
using bench::SweepConfig;

struct Column {
  const char* title;
  const char* csv;
  std::function<core::SolveResult(const core::RetrievalProblem&)> solve;
};

/// One timed construction + solve; the result is moved out after the clock
/// stops.
double time_ms(const Column& column, const core::RetrievalProblem& problem,
               core::SolveResult& out) {
  StopWatch sw;
  sw.start();
  core::SolveResult result = column.solve(problem);
  sw.stop();
  out = std::move(result);
  return sw.elapsed_ms();
}

}  // namespace

int main(int argc, char** argv) {
  const SweepConfig config = bench::parse_sweep(
      argc, argv, "ablation: flow conservation, binary scaling, PR heuristics");
  bench::print_banner(
      "Ablation: design choices on Experiment 5 / Orthogonal / Arb Load 2",
      config);

  graph::PushRelabelOptions zero_heights;
  zero_heights.height_init = graph::HeightInit::kZero;
  zero_heights.use_gap_heuristic = false;
  zero_heights.global_relabel_interval_factor = 0;
  const std::vector<Column> columns = {
      {"Alg6 (int+scal)", "alg6_ms",
       [](const core::RetrievalProblem& p) {
         return core::PushRelabelBinarySolver(p).solve();
       }},
      {"Alg5 (int only)", "alg5_ms",
       [](const core::RetrievalProblem& p) {
         return core::PushRelabelIncrementalSolver(p).solve();
       }},
      {"Alg6 zero-h", "alg6_zeroheights_ms",
       [&zero_heights](const core::RetrievalProblem& p) {
         return core::PushRelabelBinarySolver(
                    p, core::sequential_engine_factory(zero_heights))
             .solve();
       }},
      {"BB push-relabel", "bb_pr_ms",
       [](const core::RetrievalProblem& p) {
         return core::BlackBoxBinarySolver(p).solve();
       }},
  };

  CsvWriter csv(config.csv);
  std::vector<std::string> csv_header = {"N"};
  std::vector<std::string> titles = {"N"};
  for (const Column& column : columns) {
    csv_header.emplace_back(column.csv);
    titles.emplace_back(column.title);
  }
  csv.write_header(csv_header);
  TablePrinter table(titles);

  for (std::int32_t n = config.nmin; n <= config.nmax; n += config.nstep) {
    Rng rng(config.seed ^ 0xAB1A ^ static_cast<std::uint64_t>(n));
    const auto rep = decluster::make_orthogonal(
        n, decluster::SiteMapping::kCopyPerSite);
    const auto sys = workload::make_experiment_system(5, n, rng);
    const workload::QueryGenerator gen(n, workload::QueryType::kArbitrary,
                                       workload::LoadKind::kLoad2);
    std::vector<core::RetrievalProblem> problems;
    for (std::int32_t i = 0; i < config.queries; ++i) {
      problems.push_back(core::build_problem(rep, gen.next(rng), sys));
    }

    std::vector<double> total_ms(columns.size(), 0.0);
    std::vector<core::SolveResult> results(columns.size());
    for (const auto& p : problems) {
      for (std::size_t c = 0; c < columns.size(); ++c) {
        total_ms[c] += time_ms(columns[c], p, results[c]);
        if (config.check) {
          const auto report = analysis::check_solve_result(p, results[c]);
          if (!report.ok()) {
            std::fprintf(stderr, "CHECK FAILED: %s (N=%d)\n%s\n",
                         columns[c].title, n, report.to_string().c_str());
            std::exit(3);
          }
        }
        if (config.verify &&
            results[c].response_time_ms != results[0].response_time_ms) {
          std::fprintf(stderr, "VERIFY FAILED: %s T %.17g vs %s %.17g (N=%d)\n",
                       columns[c].title, results[c].response_time_ms,
                       columns[0].title, results[0].response_time_ms, n);
          std::abort();
        }
      }
    }
    const double q = static_cast<double>(config.queries);
    table.begin_row();
    table.add_cell(static_cast<long long>(n));
    std::vector<std::string> row = {std::to_string(n)};
    for (const double ms : total_ms) {
      table.add_cell(ms / q, 4);
      row.push_back(format_double(ms / q, 6));
    }
    table.end_row();
    csv.write_row(row);
  }
  table.print(std::cout);
  std::printf(
      "\ncolumns: Alg6 = integrated + binary scaling; Alg5 = integrated, no "
      "scaling;\nAlg6 zero-h = paper's plain zero-height reinit (no exact "
      "heights / gap);\nBB = black-box binary scaling with push-relabel "
      "[12].\n");
  return 0;
}
