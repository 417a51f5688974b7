#include "bench/common.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <utility>

#include "analysis/schedule_invariants.h"
#include "obs/export_json.h"
#include "support/rng.h"
#include "support/timing.h"
#include "workload/experiments.h"

namespace repflow::bench {

SweepConfig parse_sweep(int argc, const char* const* argv,
                        const std::string& summary, repflow::CliFlags* extra) {
  repflow::CliFlags own;
  repflow::CliFlags& flags = extra ? *extra : own;
  flags.define("nmin", "10", "smallest disk count per site");
  flags.define("nmax", "40", "largest disk count per site");
  flags.define("nstep", "10", "disk count increment");
  flags.define("queries", "40", "queries per cell");
  flags.define("seed", "2012", "workload RNG seed");
  flags.define("threads", "2", "parallel engine threads");
  flags.define("csv", "", "mirror series to a CSV file");
  flags.define("metrics-json", "",
               "write a JSON metrics/span sidecar after the sweep");
  flags.define("verify", "false", "cross-check optimal response times");
  flags.define("check", "false",
               "verify flow/schedule invariants on every result "
               "(exit 3 on violation)");
  flags.define("full", "false", "paper-scale sweep (N<=100, 1000 queries)");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    flags.print_help(summary);
    std::exit(0);
  }
  SweepConfig config;
  config.nmin = static_cast<std::int32_t>(flags.get_int("nmin"));
  config.nmax = static_cast<std::int32_t>(flags.get_int("nmax"));
  config.nstep = static_cast<std::int32_t>(flags.get_int("nstep"));
  config.queries = static_cast<std::int32_t>(flags.get_int("queries"));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.threads = static_cast<int>(flags.get_int("threads"));
  config.csv = flags.get("csv");
  config.metrics_json = flags.get("metrics-json");
  config.verify = flags.get_bool("verify");
  config.check = flags.get_bool("check");
  if (flags.get_bool("full")) {
    config.nmax = 100;
    config.queries = 1000;
  }
  if (config.nmin < 2 || config.nmax < config.nmin || config.nstep < 1 ||
      config.queries < 1 || config.threads < 1) {
    throw std::invalid_argument("parse_sweep: inconsistent sweep flags");
  }
  return config;
}

double time_solve_ms(const core::RetrievalProblem& problem,
                     core::SolverKind kind, int threads,
                     double* response_ms, core::SolveResult* result_out) {
  StopWatch sw;
  sw.start();
  core::SolveResult result = core::solve(problem, kind, threads);
  sw.stop();
  if (response_ms) *response_ms = result.response_time_ms;
  if (result_out) *result_out = std::move(result);
  return sw.elapsed_ms();
}

std::vector<SolverTiming> run_cell(const CellSpec& spec,
                                   const std::vector<core::SolverKind>& kinds,
                                   std::int32_t count, std::uint64_t seed,
                                   int threads, bool verify, bool check) {
  // Workload materialization is seeded per cell so every solver (and every
  // binary) sees the identical query stream.
  Rng rng(seed ^ (static_cast<std::uint64_t>(spec.experiment) << 40) ^
          (static_cast<std::uint64_t>(spec.scheme) << 36) ^
          (static_cast<std::uint64_t>(spec.qtype) << 34) ^
          (static_cast<std::uint64_t>(spec.load) << 32) ^
          static_cast<std::uint64_t>(spec.n));
  const auto rep = decluster::make_scheme(
      spec.scheme, spec.n, decluster::SiteMapping::kCopyPerSite, rng);
  const auto sys =
      workload::make_experiment_system(spec.experiment, spec.n, rng);
  const workload::QueryGenerator gen(spec.n, spec.qtype, spec.load);

  std::vector<core::RetrievalProblem> problems;
  problems.reserve(static_cast<std::size_t>(count));
  for (std::int32_t i = 0; i < count; ++i) {
    problems.push_back(core::build_problem(rep, gen.next(rng), sys));
  }

  std::vector<SolverTiming> timings;
  timings.reserve(kinds.size());
  std::vector<double> first_kind_response;  // per query, for --verify
  for (core::SolverKind kind : kinds) {
    SolverTiming t;
    t.kind = kind;
    t.queries = count;
    core::SolveResult checked;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const core::RetrievalProblem& problem = problems[i];
      double response = 0.0;
      t.total_ms += time_solve_ms(problem, kind, threads, &response,
                                  check ? &checked : nullptr);
      // The paper's own consistency check (Section VI-F), made exact: every
      // algorithm returns the same optimal response time on every query.
      if (verify && timings.empty()) {
        first_kind_response.push_back(response);
      } else if (verify && response != first_kind_response[i]) {
        std::fprintf(stderr,
                     "VERIFY FAILED: %s T %.17g vs %s %.17g (N=%d, query "
                     "%zu)\n",
                     core::solver_name(kind), response,
                     core::solver_name(kinds.front()), first_kind_response[i],
                     spec.n, i);
        std::abort();
      }
      if (check) {
        const auto report = analysis::check_solve_result(problem, checked);
        if (!report.ok()) {
          std::fprintf(stderr, "CHECK FAILED: %s (N=%d, experiment %d)\n%s\n",
                       core::solver_name(kind), spec.n, spec.experiment,
                       report.to_string().c_str());
          std::exit(3);
        }
      }
    }
    t.avg_ms = t.total_ms / static_cast<double>(count);
    timings.push_back(t);
  }
  return timings;
}

void sweep_n(const SweepConfig& config, const CellSpec& base,
             const std::vector<core::SolverKind>& kinds,
             const std::function<void(std::int32_t,
                                      const std::vector<SolverTiming>&)>&
                 emit_row) {
  for (std::int32_t n = config.nmin; n <= config.nmax; n += config.nstep) {
    CellSpec spec = base;
    spec.n = n;
    emit_row(n, run_cell(spec, kinds, config.queries, config.seed,
                         config.threads, config.verify, config.check));
  }
  maybe_write_metrics_sidecar(config);
}

void maybe_write_metrics_sidecar(const SweepConfig& config) {
  if (config.metrics_json.empty()) return;
  if (obs::dump_global_metrics_json(config.metrics_json)) {
    std::printf("metrics sidecar: %s\n", config.metrics_json.c_str());
  } else {
    std::fprintf(stderr, "cannot write metrics sidecar %s\n",
                 config.metrics_json.c_str());
  }
}

void print_banner(const std::string& title, const SweepConfig& config) {
  std::printf("== %s ==\n", title.c_str());
  std::printf(
      "sweep: N = %d..%d step %d | %d queries/cell | seed %llu | %d "
      "threads%s%s\n\n",
      config.nmin, config.nmax, config.nstep, config.queries,
      static_cast<unsigned long long>(config.seed), config.threads,
      config.verify ? " | verify on" : "", config.check ? " | check on" : "");
}

}  // namespace repflow::bench
