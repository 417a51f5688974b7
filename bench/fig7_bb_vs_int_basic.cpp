// Figure 7 reproduction: black-box / integrated push-relabel execution time
// ratio on the basic retrieval problem (Experiment 1), one series per
// allocation scheme.
//
// Panels: (a) Range/Load1, (b) Arbitrary/Load2, (c) Range/Load3.
// Expected shape (paper): modest ratios (~0.95-1.3) because the basic
// problem performs few capacity-incrementation steps; schemes needing more
// incrementation (Orthogonal on range, RDA on arbitrary) benefit most.
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
using workload::QueryType;

void run_panel(const SweepConfig& config, const char* label, QueryType qtype,
               LoadKind load, CsvWriter& csv) {
  std::printf("--- %s - %s (Experiment 1, ratio bb/int) ---\n", label,
              workload::query_type_name(qtype));
  TablePrinter table({"N", "RDA", "Dependent", "Orthogonal"});
  const std::vector<Scheme> schemes = {Scheme::kRda, Scheme::kDependent,
                                       Scheme::kOrthogonal};
  for (std::int32_t n = config.nmin; n <= config.nmax; n += config.nstep) {
    table.begin_row();
    table.add_cell(static_cast<long long>(n));
    std::vector<std::string> csv_row = {label,
                                        workload::query_type_name(qtype),
                                        std::to_string(n)};
    for (Scheme scheme : schemes) {
      CellSpec spec;
      spec.experiment = 1;
      spec.scheme = scheme;
      spec.qtype = qtype;
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
      argc, argv, "fig7: black box vs integrated PR ratio, Experiment 1");
  bench::print_banner(
      "Figure 7: Black Box / Integrated PR ratio, Experiment 1", config);
  CsvWriter csv(config.csv);
  csv.write_header(
      {"load", "qtype", "N", "rda_ratio", "dependent_ratio", "orth_ratio"});
  run_panel(config, "LOAD 1", QueryType::kRange, LoadKind::kLoad1, csv);
  run_panel(config, "LOAD 2", QueryType::kArbitrary, LoadKind::kLoad2, csv);
  run_panel(config, "LOAD 3", QueryType::kRange, LoadKind::kLoad3, csv);
  bench::maybe_write_metrics_sidecar(config);
  return 0;
}
