// Extension bench: beyond two copies and two sites.
//
// The generalized formulation ([12], and this library) supports any number
// of sites and copies; the paper's evaluation stops at c = 2 / two sites.
// Two sections:
//
//   1. The original c = 2..4 sweep (pairwise-orthogonal linear family, one
//      copy per site, prime N): scheduling cost of Algorithm 6 AND the
//      Hopcroft-Karp matching kernel side by side, plus the achieved
//      optimal response time, quantifying the diminishing returns of extra
//      replicas and the matching kernel's edge as c grows.
//   2. Degree~16 adversarial cells — 16 copies per bucket on a 64-disk
//      array with hot-slow skew (replicas concentrated on the slowest
//      disks), the dense c > 2 shape where the matching kernel's naive
//      adjacency scan loses ground.  Runs the kernel with degree-bucketed
//      adjacency off vs on over one shared seeded batch and reports mean
//      solve time and the summed DFS arc probes (`flow_stats.dfs_visits`).
//      The visit sums are deterministic per seed; --bench-json mirrors this
//      section into a JSON file that CI gates against the
//      `degree_bucketing` section of BENCH_matching.json.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/bipartite_matching.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/timing.h"
#include "workload/experiments.h"

namespace {

using namespace repflow;
using bench::SweepConfig;

/// Problem with `buckets` buckets, each on `copies` distinct disks of a
/// `disks`-wide array (the same generator family as bench/micro_matching's
/// dense shapes).  Replica placement is heavily biased toward low-numbered
/// disks (cubed-uniform draw) and those hot disks are also the slow ones
/// (hot_slow cost profile), yielding the adversarial c > 2 shape: a few
/// high-in-degree, low-capacity disks sit in nearly every bucket's replica
/// set and saturate first, so an adjacency scan that tries them first
/// walks dead slots on every probe.  That is the shape the degree-bucketed
/// ordering exists for.
core::RetrievalProblem make_skewed_problem(std::int32_t disks,
                                           std::int64_t buckets,
                                           std::size_t copies,
                                           std::uint64_t seed) {
  Rng rng(seed);
  core::RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = disks;
  p.system.cost_ms.resize(static_cast<std::size_t>(disks));
  for (std::int32_t d = 0; d < disks; ++d) {
    p.system.cost_ms[static_cast<std::size_t>(d)] =
        d < disks / 4 ? 2.0 : (d < disks / 2 ? 1.0 : 0.5);
  }
  p.system.delay_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.init_load_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.model.assign(static_cast<std::size_t>(disks), "A");
  p.replicas.resize(static_cast<std::size_t>(buckets));
  for (auto& replica_set : p.replicas) {
    while (replica_set.size() < copies) {
      const double u = rng.uniform01();
      const auto d =
          static_cast<core::DiskId>(static_cast<double>(disks) * u * u * u);
      bool seen = false;
      for (core::DiskId have : replica_set) seen = seen || have == d;
      if (!seen) replica_set.push_back(d);
    }
  }
  p.validate();
  return p;
}

struct BatchRun {
  double avg_ms = 0.0;       // mean per-solve wall time over the timed passes
  std::uint64_t visits = 0;  // summed flow_stats.dfs_visits, one pass
};

/// Warm `solver` on the batch, then time `reps` full passes.  The warm pass
/// sums the DFS arc probes and records each problem's optimal response time
/// into `responses` (filled on first call, verified exactly on later calls:
/// the adjacency order changes the schedule, never the optimum).
BatchRun run_matching_batch(core::IntegratedMatchingSolver& solver,
                            const std::vector<core::RetrievalProblem>& batch,
                            std::int32_t reps, const char* label,
                            std::vector<double>& responses) {
  BatchRun run;
  core::SolveResult result;
  const bool first = responses.empty();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    solver.solve_into(batch[i], result);
    run.visits += result.flow_stats.dfs_visits;
    if (first) {
      responses.push_back(result.response_time_ms);
    } else if (result.response_time_ms != responses[i]) {
      std::fprintf(stderr, "MISMATCH problem %zu (%s): %.6f vs %.6f\n", i,
                   label, responses[i], result.response_time_ms);
      std::abort();
    }
  }
  StopWatch sw;
  sw.start();
  for (std::int32_t r = 0; r < reps; ++r) {
    for (const auto& problem : batch) solver.solve_into(problem, result);
  }
  sw.stop();
  run.avg_ms = sw.elapsed_ms() / static_cast<double>(batch.size() * reps);
  return run;
}

struct DegreeCells {
  std::int32_t buckets = 0;
  std::int32_t problems = 0;
  BatchRun unbucketed;
  BatchRun bucketed;
};

/// Section 2: the dense c > 2 shape with degree bucketing off and on, one
/// shared batch.
DegreeCells run_degree_cells(const SweepConfig& config, std::int32_t buckets,
                             std::int32_t reps) {
  const std::int32_t disks = 64;
  const std::size_t copies = 16;
  std::vector<core::RetrievalProblem> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(
        make_skewed_problem(disks, buckets, copies, config.seed + 4242 + i));
  }

  DegreeCells cells;
  cells.buckets = buckets;
  cells.problems = static_cast<std::int32_t>(batch.size());
  std::vector<double> responses;
  core::IntegratedMatchingSolver unbucketed;
  unbucketed.set_degree_bucketed(false);
  cells.unbucketed =
      run_matching_batch(unbucketed, batch, reps, "unbucketed", responses);
  core::IntegratedMatchingSolver bucketed;
  cells.bucketed =
      run_matching_batch(bucketed, batch, reps, "bucketed", responses);

  std::printf("--- degree-16 adversarial cells (64 disks, hot-slow skew, %d "
              "buckets x 16 copies, %d problems) ---\n",
              buckets, cells.problems);
  TablePrinter table({"adjacency", "avg solve ms", "time vs off", "DFS visits",
                      "visits vs off"});
  const auto row = [&](const char* name, const BatchRun& run) {
    table.begin_row();
    table.add_cell(name);
    table.add_cell(run.avg_ms, 4);
    table.add_cell(run.avg_ms > 0 ? cells.unbucketed.avg_ms / run.avg_ms : 0.0,
                   3);
    table.add_cell(static_cast<long long>(run.visits));
    table.add_cell(run.visits > 0
                       ? static_cast<double>(cells.unbucketed.visits) /
                             static_cast<double>(run.visits)
                       : 0.0,
                   3);
    table.end_row();
  };
  row("bucketing off", cells.unbucketed);
  row("degree-bucketed", cells.bucketed);
  table.print(std::cout);
  std::printf("\n");
  return cells;
}

void write_bench_json(const std::string& path, const DegreeCells& cells) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write bench json %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"multi_copy_extension\",\n");
  std::fprintf(out, "  \"degree16\": {\n");
  std::fprintf(out, "    \"buckets\": %d,\n", cells.buckets);
  std::fprintf(out, "    \"problems\": %d,\n", cells.problems);
  std::fprintf(out, "    \"unbucketed_avg_ms\": %.6f,\n",
               cells.unbucketed.avg_ms);
  std::fprintf(out, "    \"bucketed_avg_ms\": %.6f,\n",
               cells.bucketed.avg_ms);
  std::fprintf(out, "    \"unbucketed_visits\": %llu,\n",
               static_cast<unsigned long long>(cells.unbucketed.visits));
  std::fprintf(out, "    \"bucketed_visits\": %llu\n",
               static_cast<unsigned long long>(cells.bucketed.visits));
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("bench json: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  repflow::CliFlags extra;
  extra.define("disks", "13", "disks per site (prime recommended)");
  extra.define("dense-buckets", "800",
               "bucket count for the degree-16 adversarial cells");
  extra.define("reps", "3", "timed passes over each batch");
  extra.define("bench-json", "",
               "write the degree-16 cells to this JSON file");
  const bench::SweepConfig config = bench::parse_sweep(
      argc, argv, "multi-copy extension: c = 2..4 copies / sites", &extra);
  const auto n = static_cast<std::int32_t>(extra.get_int("disks"));
  const auto dense_buckets =
      static_cast<std::int32_t>(extra.get_int("dense-buckets"));
  const auto reps = static_cast<std::int32_t>(extra.get_int("reps"));
  const std::string bench_json = extra.get("bench-json");
  bench::print_banner("Extension: multi-copy / multi-site retrieval", config);
  CsvWriter csv(config.csv);
  csv.write_header(
      {"copies", "qtype", "mean_resp_ms", "alg6_solve_ms", "hk_solve_ms"});

  TablePrinter table({"copies (= sites)", "query type", "mean response (ms)",
                      "alg6 solve (ms)", "matching solve (ms)"});
  for (std::int32_t copies = 2; copies <= 4; ++copies) {
    const auto rep = decluster::make_orthogonal_multi(
        n, copies, decluster::SiteMapping::kCopyPerSite);
    // Identical mixed-disk recipe on every site so response-time deltas
    // isolate the replica-count effect.
    Rng rng(config.seed);
    std::vector<workload::SiteRecipe> sites(
        static_cast<std::size_t>(copies),
        workload::SiteRecipe{workload::DiskGroup::kSsdHdd, true, true});
    const auto sys = workload::make_system(sites, n, rng);
    for (auto qtype :
         {workload::QueryType::kRange, workload::QueryType::kArbitrary}) {
      const workload::QueryGenerator gen(n, qtype,
                                         workload::LoadKind::kLoad2);
      Rng qrng(config.seed + 1);
      RunningStats response, alg6_time, hk_time;
      for (std::int32_t i = 0; i < config.queries; ++i) {
        const auto problem = core::build_problem(rep, gen.next(qrng), sys);
        StopWatch sw;
        sw.start();
        const auto result =
            core::solve(problem, core::SolverKind::kPushRelabelBinary);
        sw.stop();
        response.add(result.response_time_ms);
        alg6_time.add(sw.elapsed_ms());
        sw.reset();  // StopWatch accumulates across start/stop pairs
        sw.start();
        const auto hk =
            core::solve(problem, core::SolverKind::kIntegratedMatching);
        sw.stop();
        hk_time.add(sw.elapsed_ms());
        if (std::abs(hk.response_time_ms - result.response_time_ms) > 1e-9) {
          std::fprintf(stderr, "MISMATCH c=%d query %d: %.6f vs %.6f\n",
                       copies, i, result.response_time_ms,
                       hk.response_time_ms);
          std::abort();
        }
      }
      table.add_row({std::to_string(copies),
                     workload::query_type_name(qtype),
                     format_double(response.mean(), 2),
                     format_double(alg6_time.mean(), 4),
                     format_double(hk_time.mean(), 4)});
      csv.write_row({std::to_string(copies),
                     workload::query_type_name(qtype),
                     format_double(response.mean(), 4),
                     format_double(alg6_time.mean(), 6),
                     format_double(hk_time.mean(), 6)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nexpect: response time falls with each extra copy (more scheduling "
      "freedom and\nmore hardware) with diminishing returns; solve time "
      "rises mildly (denser networks).\n\n");

  const DegreeCells cells = run_degree_cells(config, dense_buckets, reps);
  if (!bench_json.empty()) write_bench_json(bench_json, cells);
  bench::maybe_write_metrics_sidecar(config);
  return 0;
}
