// Figure 6 reproduction: Ford-Fulkerson (Algorithm 2) vs Push-relabel
// (Algorithm 6) on the generalized retrieval problem (Experiment 5) with
// Orthogonal allocation.
//
// Panels: (a) Arbitrary/Load1, (b) Range/Load2, (c) Arbitrary/Load3.
// Expected shape (paper): same verdict as the basic case — push-relabel is
// decisively faster at scale (Alg 6 needs ~30ms at N=100, |Q|=5000).
#include <cstdio>
#include <iostream>

#include "bench/common.h"

namespace {

using namespace repflow;
using bench::CellSpec;
using bench::SweepConfig;
using core::SolverKind;
using workload::LoadKind;
using workload::QueryType;

void run_panel(const SweepConfig& config, const char* label, QueryType qtype,
               LoadKind load, CsvWriter& csv) {
  CellSpec base;
  base.experiment = 5;  // heterogeneous + random delays and initial loads
  base.scheme = decluster::Scheme::kOrthogonal;
  base.qtype = qtype;
  base.load = load;
  std::printf("--- %s - %s - Orthogonal (Experiment 5) ---\n", label,
              workload::query_type_name(qtype));
  TablePrinter table({"N", "FordFulkerson ms", "PushRelabel ms", "FF/PR"});
  bench::sweep_n(
      config, base,
      {SolverKind::kFordFulkersonIncremental, SolverKind::kPushRelabelBinary},
      [&](std::int32_t n, const std::vector<bench::SolverTiming>& t) {
        table.begin_row();
        table.add_cell(static_cast<long long>(n));
        table.add_cell(t[0].avg_ms, 4);
        table.add_cell(t[1].avg_ms, 4);
        table.add_cell(t[1].avg_ms > 0 ? t[0].avg_ms / t[1].avg_ms : 0.0, 2);
        table.end_row();
        csv.write_row({label, workload::query_type_name(qtype),
                       std::to_string(n), format_double(t[0].avg_ms, 6),
                       format_double(t[1].avg_ms, 6)});
      });
  table.print(std::cout);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const SweepConfig config = bench::parse_sweep(
      argc, argv,
      "fig6: Ford-Fulkerson vs Push-relabel, generalized problem "
      "(Experiment 5)");
  bench::print_banner(
      "Figure 6: FF (Alg 2) vs PR (Alg 6), Experiment 5, Orthogonal", config);
  CsvWriter csv(config.csv);
  csv.write_header({"load", "qtype", "N", "ff_ms", "pr_ms"});
  run_panel(config, "LOAD 1", QueryType::kArbitrary, LoadKind::kLoad1, csv);
  run_panel(config, "LOAD 2", QueryType::kRange, LoadKind::kLoad2, csv);
  run_panel(config, "LOAD 3", QueryType::kArbitrary, LoadKind::kLoad3, csv);
  bench::maybe_write_metrics_sidecar(config);
  return 0;
}
