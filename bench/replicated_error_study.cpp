// Replicated additive-error study (companion to the paper's Section I and
// Tosun's comparison survey [43]).
//
// For each allocation scheme, measures over all wraparound range queries of
// an N x N grid: the worst and mean *replicated* additive error (optimal
// retrieval cost minus ceil(|Q|/N_total)) and the fraction of queries
// retrieved strictly optimally.  Quantifies the "lower worst-case additive
// error" advantage of replication that motivates the whole line of work,
// and shows where the schemes differ before timing even matters.
#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "decluster/retrieval_cost.h"
#include "decluster/threshold.h"
#include "support/rng.h"

int main(int argc, char** argv) {
  using namespace repflow;
  repflow::CliFlags extra;
  extra.define("gridmax", "8", "largest grid size (exact scan is O(N^4) flows)");
  const bench::SweepConfig config = bench::parse_sweep(
      argc, argv, "replicated additive-error study across schemes", &extra);
  const auto gridmax = static_cast<std::int32_t>(extra.get_int("gridmax"));
  bench::print_banner("Replicated additive-error study (all range queries)",
                      config);
  CsvWriter csv(config.csv);
  csv.write_header({"N", "scheme", "worst", "mean", "optimal_fraction"});

  TablePrinter table(
      {"N", "scheme", "worst err", "mean err", "% optimal queries"});
  for (std::int32_t n = 4; n <= gridmax; n += 2) {
    Rng rng(config.seed + static_cast<std::uint64_t>(n));
    struct Row {
      const char* name;
      decluster::ReplicatedAllocation rep;
    };
    std::vector<Row> rows;
    rows.push_back({"RDA", decluster::make_rda(
                               n, 2, decluster::SiteMapping::kCopyPerSite,
                               rng)});
    rows.push_back({"Dependent", decluster::make_dependent(
                                     n, decluster::SiteMapping::kCopyPerSite)});
    rows.push_back({"Orthogonal", decluster::make_orthogonal(
                                      n, decluster::SiteMapping::kCopyPerSite)});
    rows.push_back(
        {"Orth+threshold",
         decluster::make_orthogonal_threshold(
             n, decluster::SiteMapping::kCopyPerSite, {8, 24, config.seed})});
    for (const auto& row : rows) {
      const auto profile = decluster::replicated_error_profile(row.rep);
      const double optimal_fraction =
          100.0 * static_cast<double>(profile.zero_error_queries) /
          static_cast<double>(profile.queries);
      table.add_row({std::to_string(n), row.name,
                     std::to_string(profile.worst),
                     format_double(profile.mean, 4),
                     format_double(optimal_fraction, 1)});
      csv.write_row({std::to_string(n), row.name,
                     std::to_string(profile.worst),
                     format_double(profile.mean, 6),
                     format_double(optimal_fraction, 3)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nexpect: every replicated scheme keeps the worst error at <= 1 "
      "(replication's\npromise); the structured schemes retrieve more "
      "queries strictly optimally than RDA.\n");
  bench::maybe_write_metrics_sidecar(config);
  return 0;
}
