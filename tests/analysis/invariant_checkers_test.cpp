// Unit tests for the analysis-layer invariant checkers themselves: each
// checker must accept a state that satisfies its invariant and produce a
// non-empty report (or throw through enforce()) for a state that violates
// it.  A checker that never fires is worse than none — it certifies broken
// solvers — so every checker gets at least one constructed violation here.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/check.h"
#include "analysis/flow_invariants.h"
#include "analysis/schedule_invariants.h"
#include "core/network.h"
#include "core/schedule.h"
#include "core/solve.h"
#include "graph/flow_network.h"
#include "graph/push_relabel.h"

namespace repflow {
namespace {

using graph::Cap;
using graph::FlowNetwork;
using graph::Vertex;

/// Diamond s -> {a, b} -> t with unit capacities (max flow 2).
FlowNetwork diamond() {
  FlowNetwork net(4);
  net.add_arc(0, 1, 1);  // s -> a
  net.add_arc(0, 2, 1);  // s -> b
  net.add_arc(1, 3, 1);  // a -> t
  net.add_arc(2, 3, 1);  // b -> t
  net.finalize_adjacency();
  return net;
}

TEST(FlowInvariants, CleanZeroFlowPasses) {
  FlowNetwork net = diamond();
  const auto report = analysis::check_flow_invariants(net, 0, 3);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FlowInvariants, SolvedFlowPassesAllChecks) {
  FlowNetwork net = diamond();
  graph::PushRelabel engine(net, 0, 3);
  const auto result = engine.solve_from_zero();
  EXPECT_EQ(result.value, 2);
  EXPECT_TRUE(analysis::check_flow_invariants(net, 0, 3).ok());
  EXPECT_TRUE(analysis::check_preflow_invariants(net, 0, 3).ok());
  EXPECT_TRUE(analysis::check_maxflow_optimality(net, 0, 3).ok());
}

TEST(FlowInvariants, OverCapacityFlowIsReported) {
  FlowNetwork net = diamond();
  net.set_pair_flow(0, 5);  // cap is 1
  const auto report = analysis::check_arc_bounds(net);
  EXPECT_FALSE(report.ok());
}

TEST(FlowInvariants, BrokenConservationIsReported) {
  FlowNetwork net = diamond();
  // One unit leaves vertex a without ever entering it.
  net.set_pair_flow(4, 1);  // a -> t only
  EXPECT_FALSE(analysis::check_conservation(net, 0, 3).ok());
  // The same state also violates the *preflow* relaxation: a owes flow.
  EXPECT_FALSE(analysis::check_preflow_excess(net, 0, 3).ok());
}

TEST(FlowInvariants, LegalPreflowExcessPassesPreflowButNotFlow) {
  FlowNetwork net = diamond();
  // One unit parked at a (pushed in, not yet forwarded): a legal preflow
  // state for Algorithms 1/2 but not a conserved flow.
  net.set_pair_flow(0, 1);  // s -> a
  EXPECT_TRUE(analysis::check_preflow_invariants(net, 0, 3).ok());
  EXPECT_FALSE(analysis::check_conservation(net, 0, 3).ok());
}

TEST(FlowInvariants, MaxflowCheckRejectsNonMaximalFlow) {
  FlowNetwork net = diamond();
  // Zero flow, but the min cut has capacity 2: an augmenting path remains.
  EXPECT_FALSE(analysis::check_maxflow_optimality(net, 0, 3).ok());
}

TEST(FlowInvariants, CsrAdjacencyCleanAfterEdits) {
  FlowNetwork net = diamond();
  EXPECT_TRUE(analysis::check_csr_adjacency(net).ok());
  net.add_vertices(2);
  net.add_arc(3, 4, 7);
  net.add_arc(4, 5, 7);
  EXPECT_TRUE(analysis::check_csr_adjacency(net).ok());
}

TEST(FlowInvariants, ValidLabelingAcceptedInvalidRejected) {
  FlowNetwork net = diamond();
  // Saturate the source arcs first, as every push-relabel start does:
  // validity spans all residual arcs, and h(s) = n forbids residual source
  // out-arcs by construction.
  net.set_pair_flow(0, 1);
  net.set_pair_flow(2, 1);
  const auto n = static_cast<std::int32_t>(net.num_vertices());
  // Exact distance labels: t=0, a=b=1, s=n.
  std::vector<std::int32_t> height = {n, 1, 1, 0};
  EXPECT_TRUE(analysis::check_valid_labeling(
                  net, 0, 3, std::span<const std::int32_t>(height))
                  .ok());
  // a at height 3 sees t at 0 through a residual arc: 3 > 0 + 1.
  height[1] = 3;
  EXPECT_FALSE(analysis::check_valid_labeling(
                   net, 0, 3, std::span<const std::int32_t>(height))
                   .ok());
  // Sink must sit at height 0.
  height = {n, 1, 1, 2};
  EXPECT_FALSE(analysis::check_valid_labeling(
                   net, 0, 3, std::span<const std::int32_t>(height))
                   .ok());
}

TEST(FlowInvariants, EnforceThrowsAndCounts) {
  const auto checks_before = analysis::invariant_checks_run();
  const auto violations_before = analysis::invariant_violations_seen();
  analysis::InvariantReport clean;
  EXPECT_NO_THROW(analysis::enforce(clean, "test.clean"));
  analysis::InvariantReport broken;
  broken.fail("synthetic violation");
  EXPECT_THROW(analysis::enforce(broken, "test.broken"),
               analysis::InvariantViolation);
  EXPECT_EQ(analysis::invariant_checks_run(), checks_before + 2);
  EXPECT_EQ(analysis::invariant_violations_seen(), violations_before + 1);
}

// ---------------------------------------------------------------------------
// Schedule-level checkers.

core::RetrievalProblem two_disk_problem() {
  core::RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = 2;
  p.system.cost_ms = {1.0, 2.0};
  p.system.delay_ms = {0.0, 1.0};
  p.system.init_load_ms = {0.0, 0.0};
  p.system.model = {"A", "A"};
  p.replicas = {{0, 1}, {0}, {1}};
  p.validate();
  return p;
}

TEST(ScheduleInvariants, SolverResultPassesCompoundCheck) {
  const auto problem = two_disk_problem();
  const auto result =
      core::solve(problem, core::SolverKind::kPushRelabelBinary);
  const auto report = analysis::check_solve_result(problem, result);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ScheduleInvariants, NonReplicaAssignmentIsReported) {
  const auto problem = two_disk_problem();
  auto result = core::solve(problem, core::SolverKind::kPushRelabelBinary);
  result.schedule.assigned_disk[1] = 1;  // bucket 1 only lives on disk 0
  EXPECT_FALSE(
      analysis::check_schedule_feasibility(problem, result.schedule).ok());
}

TEST(ScheduleInvariants, MisreportedResponseTimeIsReported) {
  const auto problem = two_disk_problem();
  auto result = core::solve(problem, core::SolverKind::kPushRelabelBinary);
  const auto clean = analysis::check_response_time(problem, result.schedule,
                                                   result.response_time_ms);
  EXPECT_TRUE(clean.ok()) << clean.to_string();
  EXPECT_FALSE(analysis::check_response_time(problem, result.schedule,
                                             result.response_time_ms + 1.0)
                   .ok());
}

TEST(ScheduleInvariants, NetworkScheduleConsistencyHoldsAndFires) {
  const auto problem = two_disk_problem();
  core::RetrievalNetwork network(problem);
  network.set_capacities_for_time(10.0);
  graph::PushRelabel engine(network.net(), network.source(), network.sink());
  engine.solve_from_zero();
  ASSERT_EQ(network.flow_value(), problem.query_size());
  auto schedule = core::extract_schedule(network);
  EXPECT_TRUE(
      analysis::check_network_schedule_consistency(network, schedule).ok());
  // Claim one more bucket on disk 0 than the sink arc carries.
  ++schedule.per_disk_count[0];
  EXPECT_FALSE(
      analysis::check_network_schedule_consistency(network, schedule).ok());
}

#if REPFLOW_INVARIANTS_ENABLED
// In checking builds the engine/solver seams must actually run: a full
// catalog solve must bump the global check counter.
TEST(ScheduleInvariants, SeamsAreExercisedInCheckingBuilds) {
  const auto problem = two_disk_problem();
  const auto checks_before = analysis::invariant_checks_run();
  const auto violations_before = analysis::invariant_violations_seen();
  (void)core::solve(problem, core::SolverKind::kPushRelabelBinary);
  (void)core::solve(problem, core::SolverKind::kFordFulkersonIncremental);
  EXPECT_GT(analysis::invariant_checks_run(), checks_before);
  EXPECT_EQ(analysis::invariant_violations_seen(), violations_before);
}
#endif

}  // namespace
}  // namespace repflow
