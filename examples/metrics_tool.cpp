// metrics_tool: full-observability run of the solver catalog over a trace.
//
// Two stages, both feeding the process-global obs registry and span tracer:
//
//   1. Solver comparison — every query of the trace is solved by each
//      solver in --solvers, so the span timeline carries the per-solver
//      phase breakdown (alg2.augment / alg6.probe / alg5.capacity_step /
//      blackbox.probe / ...) and the registry carries per-solver
//      latency histograms and operation counters.
//   2. Stream replay — the trace's queries arrive back-to-back at a fixed
//      inter-arrival gap and are scheduled by QueryStreamScheduler in
//      trace-replay mode, populating the stream.response_ms histogram and
//      the scheduler's queue-wait / solve-time / response-time
//      decomposition (StreamStats).
//
// The snapshot is printed as a human-readable digest and optionally dumped
// as JSON (--json) and CSV (--csv-metrics / --csv-spans):
//
//   metrics_tool examples/data/sample.trace --json=metrics.json
//   metrics_tool in.trace --solvers=alg6,blackbox --threads=4 --no-spans
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/schedule_invariants.h"
#include "core/execution.h"
#include "core/stream.h"
#include "core/trace.h"
#include "obs/export_csv.h"
#include "obs/export_json.h"
#include "obs/export_prom.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "support/cli.h"
#include "support/stats.h"
#include "support/table.h"

namespace {

using namespace repflow;

core::SolverKind parse_solver(const std::string& name) {
  if (const auto kind = core::solver_kind_from_id(name)) return *kind;
  std::string known;
  for (core::SolverKind kind : core::kAllSolverKinds) {
    if (!known.empty()) known += '|';
    known += core::solver_id(kind);
  }
  throw std::invalid_argument("unknown solver '" + name + "' (use " + known +
                              ")");
}

std::vector<core::SolverKind> parse_solver_list(const std::string& csv) {
  std::vector<core::SolverKind> kinds;
  std::istringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) kinds.push_back(parse_solver(item));
  }
  if (kinds.empty()) throw std::invalid_argument("--solvers list is empty");
  return kinds;
}

/// Aggregate the span timeline per name: count, total, mean.
void print_span_digest(const std::vector<obs::SpanRecord>& spans) {
  struct Agg {
    std::uint64_t count = 0;
    double total_ms = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const auto& span : spans) {
    Agg& agg = by_name[span.name];
    ++agg.count;
    agg.total_ms += span.duration_ms;
  }
  if (by_name.empty()) {
    std::printf("(no spans recorded — tracing off?)\n");
    return;
  }
  TablePrinter table({"span", "count", "total (ms)", "mean (us)"});
  for (const auto& [name, agg] : by_name) {
    table.begin_row();
    table.add_cell(name);
    table.add_cell(static_cast<long long>(agg.count));
    table.add_cell(agg.total_ms, 3);
    table.add_cell(1000.0 * agg.total_ms / static_cast<double>(agg.count), 2);
    table.end_row();
  }
  table.print(std::cout);
}

void print_summary(const std::string& name, const Summary& s) {
  std::printf(
      "%-24s n=%zu mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms\n",
      name.c_str(), s.count, s.mean, s.median, s.p95, s.p99, s.max);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("solvers", "alg2,alg5,alg6,blackbox,parallel",
               "comma-separated catalog solvers for stage 1");
  flags.define("stream-solver", "parallel", "solver for the stream replay");
  flags.define("interarrival", "2.0", "stream inter-arrival gap in ms");
  flags.define("threads", "2", "parallel engine width");
  flags.define("json", "", "dump the metrics+span snapshot as JSON");
  flags.define("csv-metrics", "", "dump the metrics snapshot as CSV");
  flags.define("csv-spans", "", "dump the span timeline as CSV");
  flags.define("prom", "",
               "dump the metrics snapshot in Prometheus text format "
               "('-' for stdout); byte-identical to the HTTP exporter's "
               "/metrics rendering of the same snapshot");
  flags.define("no-spans", "false", "leave the span tracer disabled");
  flags.define("check", "false",
               "verify flow/schedule invariants on every stage-1 result "
               "(exit 3 on violation)");
  try {
    flags.parse(argc, argv);
    if (flags.help_requested() || flags.positional().empty()) {
      flags.print_help("usage: metrics_tool <trace-file> [flags]");
      return flags.help_requested() ? 0 : 2;
    }
    std::ifstream in(flags.positional()[0]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n",
                   flags.positional()[0].c_str());
      return 1;
    }
    const core::Trace trace = core::read_trace(in);
    const auto kinds = parse_solver_list(flags.get("solvers"));
    const auto stream_kind = parse_solver(flags.get("stream-solver"));
    const int threads = static_cast<int>(flags.get_int("threads"));
    const double gap_ms = flags.get_double("interarrival");
    const bool check = flags.get_bool("check");
    std::size_t checked = 0;

    obs::Tracer::global().set_enabled(!flags.get_bool("no-spans"));
    obs::Tracer::global().clear();

    // Stage 1: solver comparison over every query.
    std::printf("== stage 1: %zu queries x %zu solvers ==\n",
                trace.queries.size(), kinds.size());
    TablePrinter compare({"solver", "total solve (ms)", "response sum (ms)",
                          "probes", "capacity steps"});
    for (core::SolverKind kind : kinds) {
      // One context per row.  Its solve_into returns the wall time that
      // solver.<id>.solve_ms records, so the total reads the same with the
      // kill switch off.
      core::ExecutionContext context(
          core::ExecutionPolicy::pinned(kind, threads));
      double solve_ms = 0.0;
      double response_sum = 0.0;
      std::int64_t probes = 0;
      std::int64_t steps = 0;
      for (std::size_t qi = 0; qi < trace.queries.size(); ++qi) {
        const auto problem = trace.problem(qi);
        core::SolveResult& result = context.scratch();
        solve_ms += context.solve_into(problem, result);
        if (check) {
          const auto report = analysis::check_solve_result(problem, result);
          if (!report.ok()) {
            std::fprintf(stderr, "CHECK FAILED: %s, query %zu\n%s\n",
                         core::solver_name(kind), qi,
                         report.to_string().c_str());
            return 3;
          }
          ++checked;
        }
        response_sum += result.response_time_ms;
        probes += result.binary_probes;
        steps += result.capacity_steps;
      }
      compare.begin_row();
      compare.add_cell(core::solver_name(kind));
      compare.add_cell(solve_ms, 3);
      compare.add_cell(response_sum, 3);
      compare.add_cell(static_cast<long long>(probes));
      compare.add_cell(static_cast<long long>(steps));
      compare.end_row();
    }
    compare.print(std::cout);
    if (check) {
      std::printf("invariant checks: %zu results verified, 0 violations\n",
                  checked);
    }

    // Stage 2: stream replay (queue-wait vs. solve-time attribution).
    std::printf("\n== stage 2: stream replay (%s, gap %.1f ms) ==\n",
                core::solver_id(stream_kind), gap_ms);
    core::QueryStreamScheduler stream(
        trace.system, core::ExecutionPolicy::pinned(stream_kind, threads));
    double arrival = 0.0;
    for (std::size_t qi = 0; qi < trace.queries.size(); ++qi) {
      stream.submit_replicas(trace.queries[qi].replicas, arrival);
      arrival += gap_ms;
    }
    const core::StreamStats stats = stream.stats();
    print_summary("queue wait", stats.queue_wait);
    print_summary("solver time", stats.solve_time);
    print_summary("response time", stats.response_time);

    // Snapshot + span digest.
    const auto snapshot = obs::Registry::global().snapshot();
    const auto spans = obs::Tracer::global().spans();
    std::printf("\n== span digest (%zu spans) ==\n", spans.size());
    print_span_digest(spans);
    std::printf("\n== registry: %zu counters, %zu gauges, %zu histograms ==\n",
                snapshot.counters.size(), snapshot.gauges.size(),
                snapshot.histograms.size());

    const std::string json_path = flags.get("json");
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
        return 1;
      }
      obs::write_metrics_json(out, snapshot, spans);
      std::printf("wrote JSON snapshot: %s\n", json_path.c_str());
    }
    if (!flags.get("csv-metrics").empty() &&
        obs::write_metrics_csv(flags.get("csv-metrics"), snapshot)) {
      std::printf("wrote metrics CSV: %s\n", flags.get("csv-metrics").c_str());
    }
    if (!flags.get("csv-spans").empty() &&
        obs::write_spans_csv(flags.get("csv-spans"), spans)) {
      std::printf("wrote spans CSV: %s\n", flags.get("csv-spans").c_str());
    }
    const std::string prom_path = flags.get("prom");
    if (!prom_path.empty()) {
      // The same serializer the HTTP exporter's /metrics endpoint uses.
      if (prom_path == "-") {
        obs::write_metrics_prom(std::cout, snapshot);
      } else {
        std::ofstream out(prom_path);
        if (!out) {
          std::fprintf(stderr, "cannot open %s\n", prom_path.c_str());
          return 1;
        }
        obs::write_metrics_prom(out, snapshot);
        std::printf("wrote Prometheus snapshot: %s\n", prom_path.c_str());
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
