// Figure 9 reproduction: black-box / integrated push-relabel ratio on
// Experiment 5 (heterogeneous disks + random delays and initial loads),
// arbitrary queries, one panel per load, one series per allocation scheme.
//
// Expected shape (paper): the most dramatic win for the integrated
// algorithm — ratios grow with N up to ~2.5x, because the fully random
// Experiment 5 needs the most capacity-incrementation steps and the black
// box recomputes every flow from zero at each step.
#include <cstdio>
#include <iostream>

#include "bench/common.h"

namespace {

using namespace repflow;
using bench::CellSpec;
using bench::SweepConfig;
using core::SolverKind;
using decluster::Scheme;
using workload::LoadKind;

void run_panel(const SweepConfig& config, const char* label, LoadKind load,
               CsvWriter& csv) {
  std::printf("--- %s - Arbitrary (Experiment 5, ratio bb/int) ---\n", label);
  TablePrinter table({"N", "RDA", "Dependent", "Orthogonal"});
  const std::vector<Scheme> schemes = {Scheme::kRda, Scheme::kDependent,
                                       Scheme::kOrthogonal};
  for (std::int32_t n = config.nmin; n <= config.nmax; n += config.nstep) {
    table.begin_row();
    table.add_cell(static_cast<long long>(n));
    std::vector<std::string> csv_row = {label, std::to_string(n)};
    for (Scheme scheme : schemes) {
      CellSpec spec;
      spec.experiment = 5;
      spec.scheme = scheme;
      spec.qtype = workload::QueryType::kArbitrary;
      spec.load = load;
      spec.n = n;
      const auto timings = bench::run_cell(
          spec, {SolverKind::kBlackBoxBinary, SolverKind::kPushRelabelBinary},
          config.queries, config.seed, config.threads, config.verify,
          config.check);
      const double ratio =
          timings[1].avg_ms > 0 ? timings[0].avg_ms / timings[1].avg_ms : 0.0;
      table.add_cell(ratio, 3);
      csv_row.push_back(format_double(ratio, 4));
    }
    table.end_row();
    csv.write_row(csv_row);
  }
  table.print(std::cout);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const SweepConfig config = bench::parse_sweep(
      argc, argv, "fig9: black box vs integrated PR ratio, Experiment 5");
  bench::print_banner(
      "Figure 9: Black Box / Integrated PR ratio, Experiment 5, Arbitrary",
      config);
  CsvWriter csv(config.csv);
  csv.write_header(
      {"load", "N", "rda_ratio", "dependent_ratio", "orth_ratio"});
  run_panel(config, "LOAD 1", LoadKind::kLoad1, csv);
  run_panel(config, "LOAD 2", LoadKind::kLoad2, csv);
  run_panel(config, "LOAD 3", LoadKind::kLoad3, csv);
  bench::maybe_write_metrics_sidecar(config);
  return 0;
}
