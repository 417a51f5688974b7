// Figure 10 reproduction: per-query parallel/sequential execution time
// ratio of the integrated push-relabel algorithm (Algorithm 6),
// Experiment 5, fixed disk count — now for BOTH parallel engines behind
// the EngineKind seam (asynchronous Hong & He and the bulk-synchronous
// round engine).
//
// Panels: (a) Arbitrary/Load1/Orthogonal, (b) Range/Load2/Orthogonal,
// (c) Arbitrary/Load1/RDA.  x-axis = query index, y = parallel/sequential.
//
// After the panels, a head-to-head phase times both engines over the panel
// (a) workload at several thread counts and reports per-engine speedups
// and the round/Hong&He ratio; --bench-json mirrors that table into a JSON
// file gated in CI against BENCH_parallel.json.
//
// HARDWARE NOTE: the paper measured on an 8-core dual Xeon X5672 and saw
// up to 1.7x speed-up (~1.2x average).  On a 4-core Xeon both engines stay
// slower than the sequential solver at this problem size (PERFORMANCE.md
// has the numbers); the engine-vs-engine comparison is what CI gates.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/engine.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/timing.h"
#include "workload/experiments.h"

namespace {

using namespace repflow;
using bench::SweepConfig;
using core::EngineKind;
using core::SolverKind;
using decluster::Scheme;
using workload::LoadKind;
using workload::QueryType;

std::vector<EngineKind> parse_engines(const std::string& flag) {
  if (flag == "both") return {EngineKind::kHongHe, EngineKind::kRound};
  if (const auto kind = core::engine_kind_from_id(flag)) return {*kind};
  std::fprintf(stderr, "unknown --engine '%s' (want hong_he|round|both)\n",
               flag.c_str());
  std::exit(2);
}

void run_panel(const SweepConfig& config, std::int32_t n,
               const std::vector<EngineKind>& engines, const char* label,
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
  std::vector<std::string> columns = {"query", "|Q|", "seq ms"};
  for (EngineKind engine : engines) {
    columns.push_back(std::string(core::engine_id(engine)) + " ms");
    columns.push_back(std::string(core::engine_id(engine)) + "/seq");
  }
  TablePrinter table(columns);
  std::vector<RunningStats> ratio_stats(engines.size());
  for (std::int32_t i = 0; i < config.queries; ++i) {
    const auto query = gen.next(rng);
    const auto problem = core::build_problem(rep, query, sys);
    double seq_response = 0.0;
    const double seq_ms = bench::time_solve_ms(
        problem, SolverKind::kPushRelabelBinary, 1, &seq_response);
    table.begin_row();
    table.add_cell(static_cast<long long>(i));
    table.add_cell(static_cast<long long>(query.size()));
    table.add_cell(seq_ms, 4);
    for (std::size_t e = 0; e < engines.size(); ++e) {
      double par_response = 0.0;
      const double par_ms = bench::time_solve_ms(
          problem, SolverKind::kParallelPushRelabelBinary, config.threads,
          &par_response, nullptr, engines[e]);
      if (std::abs(seq_response - par_response) > 1e-3) {
        std::fprintf(stderr, "MISMATCH query %d (%s): seq %.4f vs par %.4f\n",
                     i, core::engine_id(engines[e]), seq_response,
                     par_response);
        std::abort();
      }
      const double ratio = seq_ms > 0 ? par_ms / seq_ms : 0.0;
      ratio_stats[e].add(ratio);
      table.add_cell(par_ms, 4);
      table.add_cell(ratio, 3);
      csv.write_row({label, decluster::scheme_name(scheme),
                     core::engine_id(engines[e]), std::to_string(i),
                     std::to_string(query.size()), format_double(seq_ms, 6),
                     format_double(par_ms, 6), format_double(ratio, 4)});
    }
    table.end_row();
  }
  table.print(std::cout);
  for (std::size_t e = 0; e < engines.size(); ++e) {
    std::printf("%s avg par/seq ratio: %.3f (min %.3f, max %.3f)\n",
                core::engine_id(engines[e]), ratio_stats[e].mean(),
                ratio_stats[e].min(), ratio_stats[e].max());
  }
  std::printf("\n");
}

struct HeadToHeadRow {
  int threads = 0;
  double hong_he_avg_ms = 0.0;
  double round_avg_ms = 0.0;
};

/// Time both engines over the panel (a) workload at each thread count.
/// Every solve runs through the pooled facade.
std::vector<HeadToHeadRow> run_head_to_head(const SweepConfig& config,
                                            std::int32_t n,
                                            const std::vector<int>& widths,
                                            double* seq_avg_ms) {
  Rng rng(config.seed ^ 0xF16ULL ^
          static_cast<std::uint64_t>(workload::LoadKind::kLoad1) << 8 ^
          static_cast<std::uint64_t>(Scheme::kOrthogonal));
  const auto rep = decluster::make_scheme(
      Scheme::kOrthogonal, n, decluster::SiteMapping::kCopyPerSite, rng);
  const auto sys = workload::make_experiment_system(5, n, rng);
  const workload::QueryGenerator gen(n, QueryType::kArbitrary,
                                     LoadKind::kLoad1);
  std::vector<core::RetrievalProblem> problems;
  problems.reserve(static_cast<std::size_t>(config.queries));
  for (std::int32_t i = 0; i < config.queries; ++i) {
    problems.push_back(core::build_problem(rep, gen.next(rng), sys));
  }

  double seq_total = 0.0;
  std::vector<double> seq_responses;
  seq_responses.reserve(problems.size());
  for (const auto& problem : problems) {
    double response = 0.0;
    seq_total += bench::time_solve_ms(
        problem, SolverKind::kPushRelabelBinary, 1, &response);
    seq_responses.push_back(response);
  }
  *seq_avg_ms = seq_total / static_cast<double>(problems.size());

  std::vector<HeadToHeadRow> rows;
  for (int width : widths) {
    HeadToHeadRow row;
    row.threads = width;
    for (EngineKind engine : core::kAllEngineKinds) {
      double total = 0.0;
      for (std::size_t i = 0; i < problems.size(); ++i) {
        double response = 0.0;
        total += bench::time_solve_ms(
            problems[i], SolverKind::kParallelPushRelabelBinary, width,
            &response, nullptr, engine);
        if (std::abs(response - seq_responses[i]) > 1e-3) {
          std::fprintf(stderr,
                       "HEAD-TO-HEAD MISMATCH query %zu (%s, %d threads): "
                       "seq %.4f vs par %.4f\n",
                       i, core::engine_id(engine), width, seq_responses[i],
                       response);
          std::abort();
        }
      }
      const double avg = total / static_cast<double>(problems.size());
      if (engine == EngineKind::kHongHe) {
        row.hong_he_avg_ms = avg;
      } else {
        row.round_avg_ms = avg;
      }
    }
    rows.push_back(row);
  }
  return rows;
}

void write_bench_json(const std::string& path, std::int32_t disks,
                      std::int32_t queries, double seq_avg_ms,
                      const std::vector<HeadToHeadRow>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write bench json %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"fig10_parallel_speedup\",\n");
  std::fprintf(out, "  \"disks\": %d,\n", disks);
  std::fprintf(out, "  \"queries\": %d,\n", queries);
  std::fprintf(out, "  \"seq_avg_ms\": %.6f,\n", seq_avg_ms);
  std::fprintf(out, "  \"head_to_head\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const HeadToHeadRow& row = rows[i];
    const double hh_speedup =
        row.hong_he_avg_ms > 0 ? seq_avg_ms / row.hong_he_avg_ms : 0.0;
    const double rd_speedup =
        row.round_avg_ms > 0 ? seq_avg_ms / row.round_avg_ms : 0.0;
    const double round_over_hong_he =
        row.round_avg_ms > 0 ? row.hong_he_avg_ms / row.round_avg_ms : 0.0;
    std::fprintf(out,
                 "    {\"threads\": %d, \"hong_he_avg_ms\": %.6f, "
                 "\"round_avg_ms\": %.6f, \"hong_he_speedup\": %.4f, "
                 "\"round_speedup\": %.4f, \"round_over_hong_he\": %.4f}%s\n",
                 row.threads, row.hong_he_avg_ms, row.round_avg_ms,
                 hh_speedup, rd_speedup, round_over_hong_he,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("bench json: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  repflow::CliFlags extra;
  extra.define("disks", "40", "fixed disk count per site (paper: 100)");
  extra.define("engine", "both",
               "parallel engine for the panels: hong_he|round|both");
  extra.define("bench-json", "",
               "write the head-to-head speedup table to this JSON file");
  const SweepConfig config = bench::parse_sweep(
      argc, argv,
      "fig10: parallel vs sequential integrated PR, Experiment 5", &extra);
  const auto n = static_cast<std::int32_t>(extra.get_int("disks"));
  const std::vector<EngineKind> engines = parse_engines(extra.get("engine"));
  const std::string bench_json = extra.get("bench-json");
  bench::print_banner(
      "Figure 10: Parallel/Sequential PR ratio, Experiment 5", config);
  std::printf(
      "note: paper hardware = 8-core Xeon; this host's core count bounds the "
      "achievable speedup (see EXPERIMENTS.md)\n\n");
  CsvWriter csv(config.csv);
  csv.write_header({"panel", "scheme", "engine", "query", "size", "seq_ms",
                    "par_ms", "ratio"});
  run_panel(config, n, engines, "LOAD 1", QueryType::kArbitrary,
            LoadKind::kLoad1, Scheme::kOrthogonal, csv);
  run_panel(config, n, engines, "LOAD 2", QueryType::kRange,
            LoadKind::kLoad2, Scheme::kOrthogonal, csv);
  run_panel(config, n, engines, "LOAD 1", QueryType::kArbitrary,
            LoadKind::kLoad1, Scheme::kRda, csv);

  // Head-to-head: both engines, widening worker counts, shared workload.
  std::vector<int> widths = {1, 2, 4};
  bool have_width = false;
  for (int w : widths) have_width = have_width || w == config.threads;
  if (!have_width) widths.push_back(config.threads);
  double seq_avg_ms = 0.0;
  const std::vector<HeadToHeadRow> rows =
      run_head_to_head(config, n, widths, &seq_avg_ms);
  std::printf("--- engine head-to-head (panel (a) workload, seq avg %.4f ms) "
              "---\n",
              seq_avg_ms);
  TablePrinter head({"threads", "hong_he ms", "round ms", "hong_he x",
                     "round x", "round/hong_he"});
  for (const HeadToHeadRow& row : rows) {
    head.begin_row();
    head.add_cell(static_cast<long long>(row.threads));
    head.add_cell(row.hong_he_avg_ms, 4);
    head.add_cell(row.round_avg_ms, 4);
    head.add_cell(row.hong_he_avg_ms > 0 ? seq_avg_ms / row.hong_he_avg_ms
                                         : 0.0,
                  3);
    head.add_cell(row.round_avg_ms > 0 ? seq_avg_ms / row.round_avg_ms : 0.0,
                  3);
    head.add_cell(row.round_avg_ms > 0
                      ? row.hong_he_avg_ms / row.round_avg_ms
                      : 0.0,
                  3);
    head.end_row();
  }
  head.print(std::cout);
  std::printf("\n");

  if (!bench_json.empty()) {
    write_bench_json(bench_json, n, config.queries, seq_avg_ms, rows);
  }
  bench::maybe_write_metrics_sidecar(config);
  return 0;
}
