// Figure 5 reproduction: Ford-Fulkerson (Algorithm 1) vs Push-relabel
// (Algorithm 6) on the basic retrieval problem (Experiment 1) with RDA.
//
// Panels: (a) Range/Load1, (b) Arbitrary/Load2, (c) Range/Load3.
// The paper's shape: push-relabel wins decisively as N and |Q| grow
// (up to ~40x at N=100); Ford-Fulkerson is marginally better only for the
// tiny queries of Load 3 at small N.
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
  base.experiment = 1;  // basic problem: homogeneous Cheetah, no delay/load
  base.scheme = decluster::Scheme::kRda;
  base.qtype = qtype;
  base.load = load;
  std::printf("--- %s - %s - RDA (Experiment 1) ---\n", label,
              workload::query_type_name(qtype));
  TablePrinter table({"N", "FordFulkerson ms", "PushRelabel ms", "FF/PR"});
  bench::sweep_n(
      config, base,
      {SolverKind::kFordFulkersonBasic, SolverKind::kPushRelabelBinary},
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
      "fig5: Ford-Fulkerson vs Push-relabel, basic problem (Experiment 1)");
  bench::print_banner("Figure 5: FF (Alg 1) vs PR (Alg 6), Experiment 1, RDA",
                      config);
  CsvWriter csv(config.csv);
  csv.write_header({"load", "qtype", "N", "ff_ms", "pr_ms"});
  run_panel(config, "LOAD 1", QueryType::kRange, LoadKind::kLoad1, csv);
  run_panel(config, "LOAD 2", QueryType::kArbitrary, LoadKind::kLoad2, csv);
  run_panel(config, "LOAD 3", QueryType::kRange, LoadKind::kLoad3, csv);
  bench::maybe_write_metrics_sidecar(config);
  return 0;
}
