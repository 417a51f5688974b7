// Extension bench: secondary-objective refinement and incremental query
// sessions.
//
// Panel 1 — min-total-work refinement: how much disk work (sum of C_j over
// assignments) the plain response-time optimum wastes vs the min-cost-flow
// refined optimum, per experiment.  Both schedules have identical optimal
// response times; the refinement only removes slack.
//
// Panel 2 — incremental sessions: scheduling cost of growing a query
// bucket-by-bucket with conserved flows (IncrementalQuerySession) vs
// re-solving from scratch at every step (Algorithm 6) — the integrated
// idea applied across query updates.
#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "core/incremental_session.h"
#include "core/min_work.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/timing.h"
#include "workload/experiments.h"

int main(int argc, char** argv) {
  using namespace repflow;
  repflow::CliFlags extra;
  extra.define("disks", "16", "disks per site");
  const bench::SweepConfig config = bench::parse_sweep(
      argc, argv, "refinement + incremental-session extension bench", &extra);
  const auto n = static_cast<std::int32_t>(extra.get_int("disks"));
  bench::print_banner("Extension: min-work refinement & incremental sessions",
                      config);
  CsvWriter csv(config.csv);
  csv.write_header({"panel", "key", "value1", "value2", "value3"});

  // Panel 1: wasted work per experiment.
  std::printf("--- min-total-work refinement (N = %d/site) ---\n", n);
  TablePrinter work_table({"Exp", "mean plain work (ms)",
                           "mean refined work (ms)", "saved"});
  for (int experiment = 1; experiment <= 5; ++experiment) {
    Rng rng(config.seed + static_cast<std::uint64_t>(experiment));
    const auto rep =
        decluster::make_orthogonal(n, decluster::SiteMapping::kCopyPerSite);
    const auto sys = workload::make_experiment_system(experiment, n, rng);
    const workload::QueryGenerator gen(n, workload::QueryType::kRange,
                                       workload::LoadKind::kLoad2);
    RunningStats plain_work, refined_work;
    for (std::int32_t q = 0; q < config.queries; ++q) {
      const auto problem = core::build_problem(rep, gen.next(rng), sys);
      const auto plain =
          core::solve(problem, core::SolverKind::kPushRelabelBinary);
      plain_work.add(core::schedule_total_work(problem, plain.schedule));
      refined_work.add(core::solve_min_total_work(problem).total_work_ms);
    }
    const double saved =
        plain_work.mean() > 0
            ? 100.0 * (plain_work.mean() - refined_work.mean()) /
                  plain_work.mean()
            : 0.0;
    work_table.add_row({std::to_string(experiment),
                        format_double(plain_work.mean(), 1),
                        format_double(refined_work.mean(), 1),
                        format_double(saved, 1) + "%"});
    csv.write_row({"minwork", std::to_string(experiment),
                   format_double(plain_work.mean(), 4),
                   format_double(refined_work.mean(), 4),
                   format_double(saved, 3)});
  }
  work_table.print(std::cout);

  // Panel 2: incremental session vs from-scratch re-solves.
  std::printf("\n--- incremental session vs from-scratch (Experiment 5) ---\n");
  TablePrinter inc_table({"buckets grown", "incremental total (ms)",
                          "from-scratch total (ms)", "speedup"});
  Rng rng(config.seed + 99);
  const auto rep =
      decluster::make_orthogonal(n, decluster::SiteMapping::kCopyPerSite);
  const auto sys = workload::make_experiment_system(5, n, rng);
  for (std::int32_t grow_to : {32, 64, 128}) {
    // Build the bucket sequence once.
    std::vector<std::vector<core::DiskId>> buckets;
    Rng brng(config.seed + static_cast<std::uint64_t>(grow_to));
    auto picks = brng.sample_without_replacement(
        static_cast<std::uint32_t>(n) * static_cast<std::uint32_t>(n),
        static_cast<std::uint32_t>(std::min(grow_to, n * n)));
    for (auto b : picks) {
      buckets.push_back(rep.replica_disks_unique(
          static_cast<std::int32_t>(b) / n, static_cast<std::int32_t>(b) % n));
    }

    StopWatch incremental;
    incremental.start();
    core::IncrementalQuerySession session(sys);
    for (const auto& replicas : buckets) {
      session.add_bucket(replicas);
      session.reoptimize();  // re-optimize after every single bucket
    }
    incremental.stop();

    StopWatch scratch;
    scratch.start();
    core::RetrievalProblem problem;
    problem.system = sys;
    for (const auto& replicas : buckets) {
      problem.replicas.push_back(replicas);
      core::solve(problem, core::SolverKind::kPushRelabelBinary);
    }
    scratch.stop();

    const double speedup = incremental.elapsed_ms() > 0
                               ? scratch.elapsed_ms() / incremental.elapsed_ms()
                               : 0.0;
    inc_table.add_row({std::to_string(buckets.size()),
                       format_double(incremental.elapsed_ms(), 2),
                       format_double(scratch.elapsed_ms(), 2),
                       format_double(speedup, 2) + "x"});
    csv.write_row({"incremental", std::to_string(buckets.size()),
                   format_double(incremental.elapsed_ms(), 4),
                   format_double(scratch.elapsed_ms(), 4),
                   format_double(speedup, 4)});
  }
  inc_table.print(std::cout);
  bench::maybe_write_metrics_sidecar(config);
  return 0;
}
