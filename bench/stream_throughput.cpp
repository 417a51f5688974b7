// Extension bench (not a paper figure): continuous query-stream scheduling.
//
// Paper Section II-A motivates the initial-load parameter X_j with queries
// arriving while disks are still busy.  This bench quantifies that regime:
// a Poisson-ish stream of queries is pushed through QueryStreamScheduler at
// several arrival rates, and for each rate we report mean/max response time
// and the mean bottleneck backlog — comparing the optimal integrated
// scheduler against a naive "first replica" strategy to show how much the
// max-flow formulation buys under load.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/router.h"
#include "core/stream.h"
#include "obs/metrics.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/timing.h"
#include "workload/experiments.h"

namespace {

using namespace repflow;

/// Naive baseline: every bucket from its first replica (site 0 copy).
core::Schedule first_replica_schedule(const core::RetrievalProblem& p) {
  core::Schedule s;
  s.per_disk_count.assign(static_cast<std::size_t>(p.total_disks()), 0);
  for (const auto& replicas : p.replicas) {
    s.assigned_disk.push_back(replicas.front());
    ++s.per_disk_count[static_cast<std::size_t>(replicas.front())];
  }
  return s;
}

/// Exact percentile over the sample set (nearest-rank); the response times
/// are virtual/model time, so this is deterministic for a fixed seed.
double exact_percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(
      pct * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  repflow::CliFlags extra;
  extra.define("disks", "16", "disks per site");
  extra.define("stream", "80", "queries per stream");
  extra.define("solver", "alg6",
               "stream solver: a catalog id (alg6|matching|...)");
  extra.define("admission", "off",
               "run the overload admission study: off (skip) | shed | "
               "coalesce (the study always prints the no-admission baseline "
               "alongside the chosen mode)");
  extra.define("backlog-ms", "0",
               "router backlog threshold for the admission study; 0 derives "
               "4x the idle response time");
  const bench::SweepConfig config = bench::parse_sweep(
      argc, argv, "stream bench: optimal vs naive under arrival pressure",
      &extra);
  const auto n = static_cast<std::int32_t>(extra.get_int("disks"));
  const auto stream_len = static_cast<std::int32_t>(extra.get_int("stream"));
  const std::string solver_flag = extra.get("solver");
  const auto stream_kind = core::solver_kind_from_id(solver_flag);
  if (!stream_kind) {
    std::fprintf(stderr, "unknown --solver '%s'\n", solver_flag.c_str());
    return 2;
  }
  const core::ExecutionPolicy policy =
      core::ExecutionPolicy::pinned(*stream_kind, config.threads);
  bench::print_banner("Extension: query-stream scheduling under load",
                      config);

  CsvWriter csv(config.csv);
  csv.write_header({"interarrival_ms", "policy", "mean_resp_ms",
                    "max_resp_ms", "mean_backlog_ms"});

  const auto rep =
      decluster::make_orthogonal(n, decluster::SiteMapping::kCopyPerSite);
  Rng sys_rng(config.seed);
  const auto sys = workload::make_experiment_system(4, n, sys_rng);
  const workload::QueryGenerator gen(n, workload::QueryType::kRange,
                                     workload::LoadKind::kLoad2);

  TablePrinter table({"interarrival (ms)", "policy", "mean resp (ms)",
                      "max resp (ms)", "mean backlog (ms)"});
  double total_solve_wall_ms = 0.0;
  std::int64_t total_solved = 0;
  for (double interarrival : {1000.0, 200.0, 50.0, 10.0}) {
    // Optimal integrated scheduling.
    {
      core::QueryStreamScheduler stream(rep, sys, policy);
      Rng rng(config.seed + 1);
      double t = 0.0;
      StopWatch wall;
      wall.start();
      for (std::int32_t i = 0; i < stream_len; ++i) {
        stream.submit(gen.next(rng), t);
        t += interarrival * rng.uniform(0.5, 1.5);
      }
      wall.stop();
      // Scheduler-side throughput: queries per second of solver wall time,
      // recorded as a gauge so the metrics sidecar (and the CI perf-smoke
      // gate) can compare runs.  Last-write-wins keeps the tightest
      // (lowest-interarrival) sweep point.
      total_solve_wall_ms += wall.elapsed_ms();
      total_solved += stream_len;
      const auto s = stream.stats();
      const std::string label =
          std::string("optimal (") + core::solver_id(*stream_kind) + ")";
      table.add_row({format_double(interarrival, 0), label,
                     format_double(s.response_time.mean, 2),
                     format_double(s.response_time.max, 2),
                     format_double(s.queue_wait.mean, 2)});
      csv.write_row({format_double(interarrival, 0), "optimal",
                     format_double(s.response_time.mean, 4),
                     format_double(s.response_time.max, 4),
                     format_double(s.queue_wait.mean, 4)});
    }
    // Naive first-replica scheduling (same arrival sequence).
    {
      Rng rng(config.seed + 1);
      std::vector<double> busy(static_cast<std::size_t>(sys.total_disks()),
                               0.0);
      RunningStats resp, backlog;
      double t = 0.0;
      double makespan = 0.0;
      for (std::int32_t i = 0; i < stream_len; ++i) {
        auto system = sys;
        double max_b = 0.0;
        for (std::size_t d = 0; d < busy.size(); ++d) {
          system.init_load_ms[d] = std::max(0.0, busy[d] - t);
          max_b = std::max(max_b, system.init_load_ms[d]);
        }
        const auto problem = core::build_problem(rep, gen.next(rng), system);
        const auto schedule = first_replica_schedule(problem);
        const double response = schedule.response_time(system);
        for (std::size_t d = 0; d < busy.size(); ++d) {
          if (schedule.per_disk_count[d] > 0) {
            busy[d] = t + problem.completion_time(static_cast<std::int32_t>(d),
                                                  schedule.per_disk_count[d]);
          }
        }
        resp.add(response);
        backlog.add(max_b);
        makespan = std::max(makespan, t + response);
        t += interarrival * rng.uniform(0.5, 1.5);
      }
      table.add_row({format_double(interarrival, 0), "naive first-replica",
                     format_double(resp.mean(), 2),
                     format_double(resp.max(), 2),
                     format_double(backlog.mean(), 2)});
      csv.write_row({format_double(interarrival, 0), "naive",
                     format_double(resp.mean(), 4),
                     format_double(resp.max(), 4),
                     format_double(backlog.mean(), 4)});
    }
  }
  table.print(std::cout);
  const double qps = total_solve_wall_ms > 0.0
                         ? 1000.0 * static_cast<double>(total_solved) /
                               total_solve_wall_ms
                         : 0.0;
  obs::Registry::global().gauge("stream.throughput_qps").set(qps);
  std::printf("\nscheduler throughput (%s): %.0f queries/s over %lld solves\n",
              core::solver_id(*stream_kind), qps,
              static_cast<long long>(total_solved));

  // Overload admission study (--admission=shed|coalesce): push the same
  // stream at >= 2x the sustainable rate through a QueryRouter in each
  // admission mode and compare event-level tail latency.  All response
  // times are virtual/model time, so the published gauges are
  // deterministic for a fixed seed and can be gated tightly in CI
  // (tools/check_bench_regression.py --router-metrics).
  const std::string admission = extra.get("admission");
  if (admission != "off") {
    if (admission != "shed" && admission != "coalesce") {
      std::fprintf(stderr, "unknown --admission '%s'\n", admission.c_str());
      return 2;
    }
    // Idle response time R0 calibrates the sweep: a stream with mean
    // interarrival R0 is roughly critically loaded (each query adds about
    // R0 minus the seek delay of busy-horizon work to the bottleneck
    // disk), so R0/2 and R0/4 are >= 2x and >= 4x overload.
    double r0 = 0.0;
    {
      Rng rng(config.seed + 11);
      for (int i = 0; i < 5; ++i) {
        core::QueryStreamScheduler one(rep, sys, policy);
        r0 = std::max(r0, one.submit(gen.next(rng), 0.0).response_ms);
      }
    }
    const double backlog_flag = extra.get_double("backlog-ms");
    const double threshold = backlog_flag > 0.0 ? backlog_flag : 4.0 * r0;
    std::printf(
        "\nOverload admission study: idle response R0=%.1f ms, backlog "
        "threshold %.1f ms, batch cap 32\n",
        r0, threshold);

    TablePrinter overload({"interarrival (ms)", "mode", "events", "shed",
                           "flushes", "dedup", "p99 resp (ms)",
                           "max backlog (ms)"});
    for (const double divisor : {2.0, 4.0}) {
      const double interarrival = r0 / divisor;
      for (const std::string& mode_name :
           std::vector<std::string>{"off", admission}) {
        core::RouterOptions ropts;
        ropts.max_backlog_ms = threshold;
        if (mode_name == "shed") ropts.mode = core::AdmissionMode::kShed;
        if (mode_name == "coalesce") {
          ropts.mode = core::AdmissionMode::kCoalesce;
        }
        core::QueryStreamScheduler stream(rep, sys, policy);
        core::QueryRouter router(stream, ropts);
        Rng rng(config.seed + 1);  // identical arrivals across modes
        double t = 0.0;
        for (std::int32_t i = 0; i < stream_len; ++i) {
          router.submit(gen.next(rng), t);
          t += interarrival * rng.uniform(0.5, 1.5);
        }
        router.flush(t);

        std::vector<double> responses;
        double max_backlog = 0.0;
        for (const auto& e : stream.events()) {
          responses.push_back(e.response_ms);
          max_backlog = std::max(max_backlog, e.max_initial_load_ms);
        }
        const double p99 = exact_percentile(responses, 0.99);
        const auto& rs = router.stats();
        overload.add_row({format_double(interarrival, 1), mode_name,
                          std::to_string(responses.size()),
                          std::to_string(rs.shed),
                          std::to_string(rs.flushes),
                          std::to_string(rs.dedup_hits),
                          format_double(p99, 1),
                          format_double(max_backlog, 1)});
        // Gauges keep the tightest (most overloaded) sweep point for the
        // CI gate; last write wins across divisors.
        obs::Registry::global()
            .gauge("router.overload." + mode_name + "_p99_ms")
            .set(p99);
        obs::Registry::global()
            .gauge("router.overload." + mode_name + "_max_backlog_ms")
            .set(max_backlog);
        if (mode_name != "off") {
          obs::Registry::global()
              .gauge("router.overload.shed_count")
              .set(static_cast<double>(rs.shed));
          obs::Registry::global()
              .gauge("router.overload.flushes")
              .set(static_cast<double>(rs.flushes));
          obs::Registry::global()
              .gauge("router.overload.dedup_hits")
              .set(static_cast<double>(rs.dedup_hits));
        }
      }
    }
    overload.print(std::cout);
    std::printf(
        "\nshape to expect: the no-admission baseline's backlog (and with "
        "it p99) grows\nwith stream length; shedding caps it by dropping "
        "arrivals, coalescing by\nretrieving overlapping buckets of merged "
        "queries once.\n");
  }

  bench::maybe_write_metrics_sidecar(config);
  std::printf(
      "\nshape to expect: at low pressure both policies are close (empty "
      "disks);\nas interarrival shrinks, the naive policy's imbalance "
      "compounds through the\nbacklog and its response times blow up, while "
      "the optimizer spreads the work.\n");
  return 0;
}
