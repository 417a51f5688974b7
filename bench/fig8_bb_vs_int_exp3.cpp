// Figure 8 reproduction: black-box vs integrated push-relabel on
// Experiment 3 (HDD site + SSD site), Arbitrary/Load1, one series per
// allocation scheme.  Three sub-tables mirror the paper's three panels:
//   (a) black-box execution time, (b) integrated execution time,
//   (c) their ratio.
// Expected shape (paper): the integrated algorithm narrows the gap between
// allocation schemes (Orthogonal/RDA converge); the ratio is highest for
// the Orthogonal allocation.
#include <cstdio>
#include <iostream>
#include <map>

#include "bench/common.h"

namespace {

using namespace repflow;
using bench::CellSpec;
using bench::SweepConfig;
using core::SolverKind;
using decluster::Scheme;

}  // namespace

int main(int argc, char** argv) {
  const SweepConfig config = bench::parse_sweep(
      argc, argv, "fig8: black box vs integrated PR, Experiment 3");
  bench::print_banner(
      "Figure 8: Black Box vs Integrated PR, Experiment 3, Arbitrary Load 1",
      config);
  CsvWriter csv(config.csv);
  csv.write_header({"N", "scheme", "bb_ms", "int_ms", "ratio"});

  const std::vector<Scheme> schemes = {Scheme::kRda, Scheme::kDependent,
                                       Scheme::kOrthogonal};
  TablePrinter bb_table({"N", "RDA", "Dependent", "Orthogonal"});
  TablePrinter int_table({"N", "RDA", "Dependent", "Orthogonal"});
  TablePrinter ratio_table({"N", "RDA", "Dependent", "Orthogonal"});

  for (std::int32_t n = config.nmin; n <= config.nmax; n += config.nstep) {
    bb_table.begin_row();
    int_table.begin_row();
    ratio_table.begin_row();
    bb_table.add_cell(static_cast<long long>(n));
    int_table.add_cell(static_cast<long long>(n));
    ratio_table.add_cell(static_cast<long long>(n));
    for (Scheme scheme : schemes) {
      CellSpec spec;
      spec.experiment = 3;
      spec.scheme = scheme;
      spec.qtype = workload::QueryType::kArbitrary;
      spec.load = workload::LoadKind::kLoad1;
      spec.n = n;
      const auto timings = bench::run_cell(
          spec, {SolverKind::kBlackBoxBinary, SolverKind::kPushRelabelBinary},
          config.queries, config.seed, config.threads, config.verify,
          config.check);
      const double bb = timings[0].avg_ms;
      const double integrated = timings[1].avg_ms;
      const double ratio = integrated > 0 ? bb / integrated : 0.0;
      bb_table.add_cell(bb, 4);
      int_table.add_cell(integrated, 4);
      ratio_table.add_cell(ratio, 3);
      csv.write_row({std::to_string(n), decluster::scheme_name(scheme),
                     format_double(bb, 6), format_double(integrated, 6),
                     format_double(ratio, 4)});
    }
    bb_table.end_row();
    int_table.end_row();
    ratio_table.end_row();
  }

  std::printf("--- (a) Black Box execution time (ms/query) ---\n");
  bb_table.print(std::cout);
  std::printf("\n--- (b) Integrated execution time (ms/query) ---\n");
  int_table.print(std::cout);
  std::printf("\n--- (c) Execution time ratio (bb/int) ---\n");
  ratio_table.print(std::cout);
  bench::maybe_write_metrics_sidecar(config);
  return 0;
}
