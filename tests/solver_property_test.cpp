// Property tests: on randomized instances spanning every allocation scheme,
// query type, query load, and experiment configuration of Section VI, every
// solver in the catalog must
//   (1) produce a valid schedule (every bucket on one of its replicas),
//   (2) report the response time its own schedule realizes,
//   (3) agree with the independent ReferenceSolver's optimum, and
//   (4) leave a valid flow of value |Q| on its network.
#include <gtest/gtest.h>

#include <tuple>

#include "core/black_box.h"
#include "core/ford_fulkerson_basic.h"
#include "core/problem.h"
#include "core/push_relabel_binary.h"
#include "core/reference.h"
#include "core/schedule.h"
#include "core/solve.h"
#include "decluster/schemes.h"
#include "graph/checks.h"
#include "support/rng.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

namespace repflow::core {
namespace {

using decluster::Scheme;
using decluster::SiteMapping;
using workload::LoadKind;
using workload::QueryType;

using Combo = std::tuple<Scheme, QueryType, LoadKind, int /*experiment*/>;

class SolversAgree : public ::testing::TestWithParam<Combo> {};

TEST_P(SolversAgree, OnRandomInstances) {
  const auto [scheme, qtype, load, experiment] = GetParam();
  Rng rng(0x5eedULL + static_cast<std::uint64_t>(experiment) * 1000 +
          static_cast<std::uint64_t>(scheme) * 100 +
          static_cast<std::uint64_t>(qtype) * 10 +
          static_cast<std::uint64_t>(load));
  const std::int32_t n = 5 + static_cast<std::int32_t>(rng.below(4));  // 5..8
  const auto rep = make_scheme(scheme, n, SiteMapping::kCopyPerSite, rng);
  const auto sys = workload::make_experiment_system(experiment, n, rng);
  const workload::QueryGenerator gen(n, qtype, load);

  for (int trial = 0; trial < 3; ++trial) {
    const auto query = gen.next(rng);
    const auto problem = build_problem(rep, query, sys);
    const double optimum = ReferenceSolver(problem).solve().response_time_ms;

    for (SolverKind kind :
         {SolverKind::kFordFulkersonIncremental,
          SolverKind::kPushRelabelIncremental, SolverKind::kPushRelabelBinary,
          SolverKind::kBlackBoxBinary, SolverKind::kParallelPushRelabelBinary,
          SolverKind::kIntegratedMatching}) {
      const SolveResult r = solve(problem, kind, 2);
      EXPECT_EQ(r.response_time_ms, optimum)
          << solver_name(kind) << " trial " << trial << " |Q|="
          << query.size();
      EXPECT_TRUE(check_schedule(problem, r.schedule).empty())
          << solver_name(kind);
      EXPECT_EQ(r.schedule.response_time(problem.system), r.response_time_ms)
          << solver_name(kind);
    }

    // Algorithm 1 also applies when the system is basic (Experiment 1).
    if (problem.system.is_basic()) {
      FordFulkersonBasicSolver basic(problem);
      const SolveResult r = basic.solve();
      EXPECT_EQ(r.response_time_ms, optimum) << "Alg1";
      EXPECT_TRUE(check_schedule(problem, r.schedule).empty()) << "Alg1";
      const auto check = graph::validate_flow(basic.network().net(),
                                              basic.network().source(),
                                              basic.network().sink());
      EXPECT_TRUE(check.ok) << check.reason;
      EXPECT_EQ(basic.network().flow_value(), problem.query_size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FullMatrix, SolversAgree,
    ::testing::Combine(
        ::testing::Values(Scheme::kRda, Scheme::kDependent,
                          Scheme::kOrthogonal),
        ::testing::Values(QueryType::kRange, QueryType::kArbitrary),
        ::testing::Values(LoadKind::kLoad1, LoadKind::kLoad2,
                          LoadKind::kLoad3),
        ::testing::Values(1, 2, 3, 4, 5)),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return std::string(decluster::scheme_name(std::get<0>(info.param))) +
             workload::query_type_name(std::get<1>(info.param)) +
             workload::load_name(std::get<2>(info.param)) + "Exp" +
             std::to_string(std::get<3>(info.param));
    });

// Flow-level invariants on the integrated binary solver's final network.
class FlowInvariants : public ::testing::TestWithParam<int> {};

TEST_P(FlowInvariants, FinalFlowIsValidMaxFlow) {
  Rng rng(9000 + GetParam());
  const std::int32_t n = 4 + static_cast<std::int32_t>(rng.below(6));
  const auto scheme = static_cast<Scheme>(rng.below(3));
  const auto rep = make_scheme(scheme, n, SiteMapping::kCopyPerSite, rng);
  const auto sys = workload::make_experiment_system(
      1 + static_cast<std::int32_t>(rng.below(5)), n, rng);
  const workload::QueryGenerator gen(
      n, rng.chance(0.5) ? QueryType::kRange : QueryType::kArbitrary,
      LoadKind::kLoad2);
  const auto query = gen.next(rng);
  const auto problem = build_problem(rep, query, sys);

  PushRelabelBinarySolver solver(problem);
  const SolveResult r = solver.solve();
  const auto& network = solver.network();
  const auto check = graph::validate_flow(network.net(), network.source(),
                                          network.sink());
  EXPECT_TRUE(check.ok) << check.reason;
  EXPECT_EQ(network.flow_value(), problem.query_size());

  // Every used sink arc respects its capacity and implies completion time
  // <= the reported optimum.
  for (DiskId d = 0; d < problem.total_disks(); ++d) {
    const auto flow = network.disk_flow(d);
    EXPECT_LE(flow, network.net().capacity(network.sink_arc(d)));
    if (flow > 0) {
      EXPECT_LE(problem.completion_time(d, flow), r.response_time_ms);
    }
  }

  // The flow decomposes into exactly |Q| unit s->t paths.
  auto net_copy = network.net();
  auto paths = graph::decompose_paths(net_copy, network.source(),
                                      network.sink());
  graph::Cap total = 0;
  for (const auto& p : paths) total += p.amount;
  EXPECT_EQ(total, problem.query_size());
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, FlowInvariants, ::testing::Range(0, 20));

// Single-site replication (the basic problem of [18]) with c in {2, 3}.
class SingleSiteCopies : public ::testing::TestWithParam<int> {};

TEST_P(SingleSiteCopies, MultiCopyRdaAgreesWithReference) {
  const int copies = GetParam();
  Rng rng(333 + copies);
  const std::int32_t n = 6;
  const auto rep = decluster::make_rda(n, copies, SiteMapping::kSingleSite,
                                       rng);
  workload::SystemConfig sys;
  sys.num_sites = 1;
  sys.disks_per_site = n;
  sys.cost_ms.assign(n, 6.1);
  sys.delay_ms.assign(n, 0.0);
  sys.init_load_ms.assign(n, 0.0);
  sys.model.assign(n, "Cheetah");
  const workload::QueryGenerator gen(n, QueryType::kArbitrary,
                                     LoadKind::kLoad2);
  for (int trial = 0; trial < 5; ++trial) {
    const auto query = gen.next(rng);
    const auto problem = build_problem(rep, query, sys);
    const double optimum = ReferenceSolver(problem).solve().response_time_ms;
    EXPECT_EQ(solve(problem, SolverKind::kPushRelabelBinary).response_time_ms,
              optimum);
    EXPECT_EQ(solve(problem, SolverKind::kFordFulkersonBasic).response_time_ms,
              optimum);
    EXPECT_EQ(solve(problem, SolverKind::kIntegratedMatching).response_time_ms,
              optimum);
  }
}

INSTANTIATE_TEST_SUITE_P(Copies, SingleSiteCopies, ::testing::Values(2, 3));

}  // namespace
}  // namespace repflow::core
