// Figure 10 reproduction: per-query parallel/sequential execution time
// ratio of the integrated push-relabel algorithm (Algorithm 6) with the
// Hong & He asynchronous lock-free engine of Section V, Experiment 5,
// fixed disk count.
//
// Panels: (a) Arbitrary/Load1/Orthogonal, (b) Range/Load2/Orthogonal,
// (c) Arbitrary/Load1/RDA.  x-axis = query index, y = parallel/sequential.
// Every parallel T must equal the sequential Algorithm 6 T exactly: both
// run the same binary-scaling driver, which picks T from the same
// candidate completions, so any difference is a bug and aborts the run.
//
// Each query's sequential and parallel solves are timed kTimings times,
// alternating, and the table reports the medians: with one timing per query
// the same build's panel sums moved by up to 40% between runs.
//
// HARDWARE NOTE: the paper measured on an 8-core dual Xeon X5672 and saw
// up to 1.7x speed-up (~1.2x average).  On a 4-core Xeon the engine stays
// slower than the sequential solver at this problem size (PERFORMANCE.md
// has the numbers).
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/common.h"
#include "support/rng.h"
#include "support/stats.h"
#include "workload/experiments.h"

namespace {

using namespace repflow;
using bench::SweepConfig;
using core::SolverKind;
using decluster::Scheme;
using workload::LoadKind;
using workload::QueryType;

constexpr int kTimings = 3;

double median(std::array<double, kTimings> ms) {
  std::sort(ms.begin(), ms.end());
  return ms[kTimings / 2];
}

void run_panel(const SweepConfig& config, std::int32_t n, const char* label,
               QueryType qtype, LoadKind load, Scheme scheme,
               CsvWriter& csv) {
  Rng rng(config.seed ^ 0xF16ULL ^ static_cast<std::uint64_t>(load) << 8 ^
          static_cast<std::uint64_t>(scheme));
  const auto rep =
      decluster::make_scheme(scheme, n, decluster::SiteMapping::kCopyPerSite,
                             rng);
  const auto sys = workload::make_experiment_system(5, n, rng);
  const workload::QueryGenerator gen(n, qtype, load);

  std::printf("--- %s - %s - %s - %d disks, %d threads ---\n", label,
              workload::query_type_name(qtype),
              decluster::scheme_name(scheme), n, config.threads);
  TablePrinter table({"query", "|Q|", "seq ms (median)", "par ms (median)",
                      "par/seq"});
  RunningStats ratio_stats;
  for (std::int32_t i = 0; i < config.queries; ++i) {
    const auto query = gen.next(rng);
    const auto problem = core::build_problem(rep, query, sys);
    std::array<double, kTimings> seq_times{};
    std::array<double, kTimings> par_times{};
    double optimum = 0.0;
    for (int r = 0; r < kTimings; ++r) {
      double seq_response = 0.0;
      seq_times[r] = bench::time_solve_ms(
          problem, SolverKind::kPushRelabelBinary, 1, &seq_response);
      double par_response = 0.0;
      par_times[r] = bench::time_solve_ms(
          problem, SolverKind::kParallelPushRelabelBinary, config.threads,
          &par_response);
      if (r == 0) optimum = seq_response;
      if (seq_response != optimum || par_response != optimum) {
        std::fprintf(stderr, "MISMATCH query %d: seq %.17g vs par %.17g\n",
                     i, seq_response, par_response);
        std::abort();
      }
    }
    const double seq_ms = median(seq_times);
    const double par_ms = median(par_times);
    const double ratio = seq_ms > 0 ? par_ms / seq_ms : 0.0;
    ratio_stats.add(ratio);
    table.begin_row();
    table.add_cell(static_cast<long long>(i));
    table.add_cell(static_cast<long long>(query.size()));
    table.add_cell(seq_ms, 4);
    table.add_cell(par_ms, 4);
    table.add_cell(ratio, 3);
    table.end_row();
    csv.write_row({label, decluster::scheme_name(scheme), std::to_string(i),
                   std::to_string(query.size()), format_double(seq_ms, 6),
                   format_double(par_ms, 6), format_double(ratio, 4)});
  }
  table.print(std::cout);
  std::printf("avg par/seq ratio: %.3f (min %.3f, max %.3f)\n\n",
              ratio_stats.mean(), ratio_stats.min(), ratio_stats.max());
}

}  // namespace

int main(int argc, char** argv) {
  repflow::CliFlags extra;
  extra.define("disks", "40", "fixed disk count per site (paper: 100)");
  const SweepConfig config = bench::parse_sweep(
      argc, argv,
      "fig10: parallel vs sequential integrated PR, Experiment 5", &extra);
  const auto n = static_cast<std::int32_t>(extra.get_int("disks"));
  bench::print_banner(
      "Figure 10: Parallel/Sequential PR ratio, Experiment 5", config);
  std::printf(
      "note: paper hardware = 8-core Xeon; this host's core count bounds the "
      "achievable speedup (see EXPERIMENTS.md)\n\n");
  CsvWriter csv(config.csv);
  csv.write_header(
      {"panel", "scheme", "query", "size", "seq_ms", "par_ms", "ratio"});
  run_panel(config, n, "LOAD 1", QueryType::kArbitrary, LoadKind::kLoad1,
            Scheme::kOrthogonal, csv);
  run_panel(config, n, "LOAD 2", QueryType::kRange, LoadKind::kLoad2,
            Scheme::kOrthogonal, csv);
  run_panel(config, n, "LOAD 1", QueryType::kArbitrary, LoadKind::kLoad1,
            Scheme::kRda, csv);
  bench::maybe_write_metrics_sidecar(config);
  return 0;
}
