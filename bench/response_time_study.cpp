// Response-time study (companion to the paper's §VI-F remark).
//
// The paper verifies that all algorithms produce identical optimal response
// times and defers the study of the *values* to its technical-report
// companion [12].  This bench fills that gap: for each experiment and
// allocation scheme it reports the mean optimal response time per query
// (what the retrieval layer actually delivers to users), alongside the
// naive first-replica baseline, quantifying the benefit of optimal replica
// selection itself across hardware mixes.
#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "support/rng.h"
#include "support/stats.h"
#include "workload/experiments.h"

namespace {

using namespace repflow;
using decluster::Scheme;

double naive_response(const core::RetrievalProblem& p) {
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(p.total_disks()), 0);
  for (const auto& replicas : p.replicas) ++counts[replicas.front()];
  double worst = 0.0;
  for (std::size_t d = 0; d < counts.size(); ++d) {
    if (counts[d] > 0) {
      worst = std::max(worst, p.completion_time(static_cast<std::int32_t>(d),
                                                counts[d]));
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::SweepConfig config = bench::parse_sweep(
      argc, argv, "response-time study across experiments and schemes");
  bench::print_banner(
      "Response-time study: optimal vs first-replica, all experiments",
      config);
  CsvWriter csv(config.csv);
  csv.write_header({"experiment", "scheme", "N", "mean_opt_ms",
                    "mean_naive_ms", "gain"});

  const std::int32_t n = config.nmax;
  TablePrinter table({"Exp", "scheme", "mean optimal (ms)",
                      "mean first-replica (ms)", "gain"});
  for (int experiment = 1; experiment <= 5; ++experiment) {
    for (Scheme scheme :
         {Scheme::kRda, Scheme::kDependent, Scheme::kOrthogonal}) {
      Rng rng(config.seed + static_cast<std::uint64_t>(experiment) * 7 +
              static_cast<std::uint64_t>(scheme));
      const auto rep = decluster::make_scheme(
          scheme, n, decluster::SiteMapping::kCopyPerSite, rng);
      const auto sys = workload::make_experiment_system(experiment, n, rng);
      const workload::QueryGenerator gen(n, workload::QueryType::kRange,
                                         workload::LoadKind::kLoad2);
      RunningStats optimal, naive;
      for (std::int32_t q = 0; q < config.queries; ++q) {
        const auto problem = core::build_problem(rep, gen.next(rng), sys);
        optimal.add(core::solve(problem, core::SolverKind::kPushRelabelBinary)
                        .response_time_ms);
        naive.add(naive_response(problem));
      }
      const double gain = optimal.mean() > 0 ? naive.mean() / optimal.mean()
                                             : 0.0;
      table.add_row({std::to_string(experiment),
                     decluster::scheme_name(scheme),
                     format_double(optimal.mean(), 2),
                     format_double(naive.mean(), 2),
                     format_double(gain, 2)});
      csv.write_row({std::to_string(experiment),
                     decluster::scheme_name(scheme), std::to_string(n),
                     format_double(optimal.mean(), 4),
                     format_double(naive.mean(), 4),
                     format_double(gain, 4)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\ngain = first-replica / optimal.  Expect the largest gains on the "
      "heterogeneous\nexperiments (2-5): the first replica pins every bucket "
      "to site 1, so when site 1\nis the slow site the optimizer's "
      "cross-site choices pay off most.\n");
  bench::maybe_write_metrics_sidecar(config);
  return 0;
}
