// Extension bench: beyond two copies and two sites.
//
// The generalized formulation ([12], and this library) supports any number
// of sites and copies; the paper's evaluation stops at c = 2 / two sites.
// This bench sweeps c = 2..4 (pairwise-orthogonal linear family, one copy
// per site, prime N): scheduling cost of Algorithm 6 AND the Hopcroft-Karp
// matching kernel side by side, plus the achieved optimal response time,
// quantifying the diminishing returns of extra replicas and the matching
// kernel's edge as c grows.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/solve.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/timing.h"
#include "workload/experiments.h"

using namespace repflow;

int main(int argc, char** argv) {
  repflow::CliFlags extra;
  extra.define("disks", "13", "disks per site (prime recommended)");
  const bench::SweepConfig config = bench::parse_sweep(
      argc, argv, "multi-copy extension: c = 2..4 copies / sites", &extra);
  const auto n = static_cast<std::int32_t>(extra.get_int("disks"));
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

  bench::maybe_write_metrics_sidecar(config);
  return 0;
}
