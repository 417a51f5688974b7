// Shared benchmark harness: sweep configuration, workload cells, and solver
// timing used by every figure/table reproduction binary.
//
// The paper's methodology (Section VI-F): for each disk count N it builds an
// N x N grid, generates 1000 queries of the chosen (type, load), solves each
// with every algorithm under test, and reports average runtime per query in
// milliseconds.  The harness mirrors that, with a reduced default sweep so
// the whole bench suite runs in minutes on a laptop; pass --full for the
// paper's N <= 100 / 1000-queries setting.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/problem.h"
#include "core/solve.h"
#include "decluster/schemes.h"
#include "support/cli.h"
#include "support/csv.h"
#include "support/table.h"
#include "workload/query_load.h"

namespace repflow::bench {

struct SweepConfig {
  std::int32_t nmin = 10;
  std::int32_t nmax = 40;
  std::int32_t nstep = 10;
  std::int32_t queries = 40;   // queries per (N, panel) cell
  std::uint64_t seed = 2012;   // ICPP'12
  int threads = 2;             // parallel engine width
  std::string csv;             // optional CSV mirror ("" = disabled)
  std::string metrics_json;    // optional JSON metrics sidecar ("" = off)
  bool verify = false;         // cross-check response times across solvers
  bool check = false;          // run the invariant suite on every result
};

/// Parse the standard sweep flags; prints help and exits(0) on --help.
/// `extra` lets a binary register additional flags before parsing; access
/// them through the returned CliFlags.
SweepConfig parse_sweep(int argc, const char* const* argv,
                        const std::string& summary,
                        repflow::CliFlags* extra = nullptr);

/// One workload cell: a fixed (experiment, scheme, type, load, N).
struct CellSpec {
  int experiment = 1;
  decluster::Scheme scheme = decluster::Scheme::kRda;
  workload::QueryType qtype = workload::QueryType::kRange;
  workload::LoadKind load = workload::LoadKind::kLoad1;
  std::int32_t n = 10;
};

/// Timing of one solver over a cell's query batch.
struct SolverTiming {
  core::SolverKind kind;
  double total_ms = 0.0;             // summed solve time over all queries
  double avg_ms = 0.0;               // total / queries
  std::int64_t queries = 0;
};

/// Materialize the cell (allocation + system + `count` queries) and time
/// every solver in `kinds` over the same query batch.  When `verify` is
/// set, aborts unless every solver returns the same optimal response time
/// on every query (the paper's own sanity check in Section VI-F, made
/// exact).  When `check` is set,
/// every solve result additionally passes the analysis-layer invariant
/// suite (flow conservation, schedule feasibility, recomputed response
/// time); a violation prints the report and exits with status 3.  Checking
/// happens outside the timed region, so reported timings stay comparable.
std::vector<SolverTiming> run_cell(const CellSpec& spec,
                                   const std::vector<core::SolverKind>& kinds,
                                   std::int32_t count, std::uint64_t seed,
                                   int threads, bool verify,
                                   bool check = false);

/// Sweep N over [nmin, nmax] in nstep increments, invoking `emit_row` with
/// the per-solver timings for each N.
void sweep_n(const SweepConfig& config, const CellSpec& base,
             const std::vector<core::SolverKind>& kinds,
             const std::function<void(std::int32_t n,
                                      const std::vector<SolverTiming>&)>&
                 emit_row);

/// Wall-clock one solver run on one problem (construction + solve).  When
/// `result_out` is non-null the full result is copied there (outside the
/// timed region) for callers that inspect or verify it.
double time_solve_ms(const core::RetrievalProblem& problem,
                     core::SolverKind kind, int threads,
                     double* response_ms = nullptr,
                     core::SolveResult* result_out = nullptr);

/// Standard header line printed by every bench binary.
void print_banner(const std::string& title, const SweepConfig& config);

/// If `config.metrics_json` is set, snapshot the global obs registry (and
/// span timeline, when tracing was on) into that file — the metrics sidecar
/// that rides next to each results/*.txt.  Every bench that parses the
/// sweep flags calls it once, after its last panel.
void maybe_write_metrics_sidecar(const SweepConfig& config);

}  // namespace repflow::bench
