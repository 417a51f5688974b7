// Unit tests for the retrieval core: problem construction, the flow-network
// builder (Figures 3/4 shapes), schedules, IncrementMinCost (Algorithm 3),
// and hand-checkable solver runs including the paper's Table II parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "analysis/schedule_invariants.h"
#include "core/binary_scaling.h"
#include "core/ford_fulkerson_basic.h"
#include "core/ford_fulkerson_incremental.h"
#include "core/increment.h"
#include "core/network.h"
#include "core/problem.h"
#include "core/push_relabel_binary.h"
#include "core/push_relabel_incremental.h"
#include "core/reference.h"
#include "core/schedule.h"
#include "core/solve.h"
#include "decluster/schemes.h"
#include "support/rng.h"
#include "workload/experiments.h"

namespace repflow::core {
namespace {

using decluster::SiteMapping;
using workload::Query;
using workload::RangeQuery;

// Basic single-site system: N homogeneous unit-cost disks.
workload::SystemConfig unit_system(std::int32_t disks) {
  workload::SystemConfig sys;
  sys.num_sites = 1;
  sys.disks_per_site = disks;
  sys.cost_ms.assign(disks, 1.0);
  sys.delay_ms.assign(disks, 0.0);
  sys.init_load_ms.assign(disks, 0.0);
  sys.model.assign(disks, "unit");
  return sys;
}

RetrievalProblem tiny_problem() {
  // 3 buckets, 2 disks; bucket replicas: {0,1}, {0}, {1}.
  RetrievalProblem p;
  p.system = unit_system(2);
  p.replicas = {{0, 1}, {0}, {1}};
  p.validate();
  return p;
}

TEST(Problem, ValidationCatchesErrors) {
  RetrievalProblem p = tiny_problem();
  p.replicas.push_back({});
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = tiny_problem();
  p.replicas[0] = {5};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = tiny_problem();
  p.system.cost_ms[0] = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = tiny_problem();
  p.system.delay_ms[1] = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Problem, ValidationRejectsNonFiniteParameters) {
  // NaN compares false against every bound check, so it needs its own.
  const auto nan = std::numeric_limits<double>::quiet_NaN();
  const auto inf = std::numeric_limits<double>::infinity();
  RetrievalProblem p = tiny_problem();
  p.system.cost_ms[0] = nan;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = tiny_problem();
  p.system.delay_ms[1] = inf;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = tiny_problem();
  p.system.init_load_ms[0] = inf;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  // build_problem validates what it builds.
  const auto rep = decluster::make_orthogonal(3, SiteMapping::kCopyPerSite);
  const Query query = {0, 1, 2};
  workload::SystemConfig sys = unit_system(6);
  sys.cost_ms[2] = nan;
  EXPECT_THROW(build_problem(rep, query, sys), std::invalid_argument);
  sys = unit_system(6);
  sys.delay_ms[2] = inf;
  EXPECT_THROW(build_problem(rep, query, sys), std::invalid_argument);
  sys = unit_system(6);
  sys.init_load_ms[2] = inf;
  EXPECT_THROW(build_problem(rep, query, sys), std::invalid_argument);
}

TEST(Problem, InDegrees) {
  const RetrievalProblem p = tiny_problem();
  const auto deg = p.disk_in_degrees();
  EXPECT_EQ(deg[0], 2);
  EXPECT_EQ(deg[1], 2);
}

TEST(Problem, BuildFromAllocationDeduplicates) {
  // Identical copies on a single site -> one replica disk per bucket.
  decluster::Allocation a(2, 2);
  a.set_disk(0, 0, 0);
  a.set_disk(0, 1, 1);
  a.set_disk(1, 0, 1);
  a.set_disk(1, 1, 0);
  decluster::ReplicatedAllocation rep({a, a}, SiteMapping::kSingleSite);
  const Query query = {0, 1, 2, 3};
  auto p = build_problem(rep, query, unit_system(2));
  for (const auto& r : p.replicas) EXPECT_EQ(r.size(), 1u);
}

TEST(Problem, BuildRejectsMismatchedDiskCounts) {
  auto rep = decluster::make_orthogonal(3, SiteMapping::kCopyPerSite);
  EXPECT_THROW(build_problem(rep, {0}, unit_system(3)),
               std::invalid_argument);  // needs 6 disks
}

TEST(Network, ShapeMatchesFigure3) {
  const RetrievalProblem p = tiny_problem();
  RetrievalNetwork rn(p);
  // |Q| + N + 2 vertices; |Q| source arcs + 4 replica arcs + N sink arcs.
  EXPECT_EQ(rn.net().num_vertices(), 3 + 2 + 2);
  EXPECT_EQ(rn.net().num_edges(), 3 + 4 + 2);
  EXPECT_EQ(rn.in_degree(0), 2);
  EXPECT_EQ(rn.in_degree(1), 2);
  for (std::int64_t b = 0; b < 3; ++b) {
    EXPECT_EQ(rn.net().capacity(rn.source_arc(b)), 1);
  }
  for (DiskId d = 0; d < 2; ++d) {
    EXPECT_EQ(rn.net().capacity(rn.sink_arc(d)), 0);
  }
}

TEST(Network, CapacityForTime) {
  RetrievalProblem p = tiny_problem();
  p.system.cost_ms = {2.0, 4.0};
  p.system.delay_ms = {1.0, 0.0};
  p.system.init_load_ms = {0.0, 3.0};
  RetrievalNetwork rn(p);
  // Disk 0: (t-1)/2 ; disk 1: (t-3)/4.
  EXPECT_EQ(rn.capacity_for_time(0, 0.5), 0);
  EXPECT_EQ(rn.capacity_for_time(0, 1.0), 0);
  EXPECT_EQ(rn.capacity_for_time(0, 3.0), 1);
  EXPECT_EQ(rn.capacity_for_time(0, 7.0), 3);
  EXPECT_EQ(rn.capacity_for_time(1, 2.9), 0);
  EXPECT_EQ(rn.capacity_for_time(1, 7.0), 1);
  EXPECT_EQ(rn.capacity_for_time(1, 11.0), 2);
  rn.set_capacities_for_time(7.0);
  EXPECT_EQ(rn.sink_capacities(), (std::vector<std::int64_t>{3, 1}));
}

TEST(Increment, AdmitsCandidatesInCostOrder) {
  RetrievalProblem p = tiny_problem();
  p.system.cost_ms = {2.0, 3.0};
  RetrievalNetwork rn(p);
  rn.set_uniform_capacities(0);
  CapacityIncrementer inc(rn);
  // Candidate completions: disk0: 2,4 (in-degree 2); disk1: 3,6.
  EXPECT_DOUBLE_EQ(inc.increment_min_cost(), 2.0);
  EXPECT_EQ(rn.sink_capacities(), (std::vector<std::int64_t>{1, 0}));
  EXPECT_DOUBLE_EQ(inc.increment_min_cost(), 3.0);
  EXPECT_EQ(rn.sink_capacities(), (std::vector<std::int64_t>{1, 1}));
  EXPECT_DOUBLE_EQ(inc.increment_min_cost(), 4.0);
  EXPECT_EQ(rn.sink_capacities(), (std::vector<std::int64_t>{2, 1}));
  EXPECT_DOUBLE_EQ(inc.increment_min_cost(), 6.0);
  EXPECT_EQ(rn.sink_capacities(), (std::vector<std::int64_t>{2, 2}));
  // Both disks exhausted (caps == in-degree): further steps must throw.
  EXPECT_THROW(inc.increment_min_cost(), std::logic_error);
  EXPECT_EQ(inc.steps(), 4);
  EXPECT_EQ(inc.total_increments(), 4);
}

TEST(Increment, TiesBumpTogether) {
  RetrievalProblem p = tiny_problem();  // equal unit costs
  RetrievalNetwork rn(p);
  rn.set_uniform_capacities(0);
  CapacityIncrementer inc(rn);
  EXPECT_DOUBLE_EQ(inc.increment_min_cost(), 1.0);
  EXPECT_EQ(rn.sink_capacities(), (std::vector<std::int64_t>{1, 1}));
  EXPECT_EQ(inc.total_increments(), 2);
}

// Next completions 3.72e-294 and 1e-300 apart are not a tie, however close
// they are in absolute terms.  Granting disk 1 a slot too would make
// IncrementMinCost stop at 3.72e-294 ms; the optimum puts all four buckets
// on disk 0.
TEST(Increment, TiesAreExactAtTinyMagnitudes) {
  RetrievalProblem p;
  p.system = unit_system(2);
  p.system.cost_ms = {1e-300, 1e-300};
  p.system.init_load_ms = {0.0, 3.72e-294};
  p.replicas = {{0, 1}, {0, 1}, {0}, {0}};
  p.validate();
  const double optimum = p.completion_time(0, 4);
  for (SolverKind kind : {SolverKind::kFordFulkersonIncremental,
                          SolverKind::kPushRelabelIncremental}) {
    const SolveResult r = solve(p, kind);
    EXPECT_EQ(r.response_time_ms, optimum) << solver_name(kind);
    EXPECT_EQ(r.schedule.per_disk_count[0], 4) << solver_name(kind);
  }
}

/// A kernel whose flow reaches |Q| exactly at t >= `optimum`; it records
/// every probe, so a test sees the driver's search window, and the order of
/// its seed and snapshot calls.
class RecordingKernel final : public ScalingKernel {
 public:
  RecordingKernel(std::int64_t q, double optimum) : q_(q), optimum_(optimum) {}
  void set_capacities_for_time(double t) override { probes.push_back(t); }
  std::int64_t resume() override {
    return probes.back() >= optimum_ ? q_ : q_ - 1;
  }
  void save() override { calls.push_back('v'); }
  void restore() override { calls.push_back('r'); }
  void seed(const std::vector<std::int32_t>& disk_of_bucket) override {
    calls.push_back('s');
    seeded = disk_of_bucket;
  }

  std::vector<double> probes;
  std::string calls;  // 's' seed, 'v' save, 'r' restore, in call order
  std::vector<std::int32_t> seeded;

 private:
  std::int64_t q_;
  double optimum_;
};

/// The driver's lower bound, from its definition: the larger of the |Q|-th
/// smallest completion D_j + X_j + k*C_j, k <= min(in-degree, |Q|), and the
/// largest over buckets of the least D_j + X_j + C_j among its replicas.
double search_lower_bound(const RetrievalProblem& p) {
  std::vector<double> completions;
  const auto degree = p.disk_in_degrees();
  for (DiskId d = 0; d < p.total_disks(); ++d) {
    const std::int64_t k_max =
        std::min<std::int64_t>(degree[d], p.query_size());
    for (std::int64_t k = 1; k <= k_max; ++k) {
      completions.push_back(p.completion_time(d, k));
    }
  }
  std::sort(completions.begin(), completions.end());
  double lower = completions[static_cast<std::size_t>(p.query_size() - 1)];
  for (const auto& replicas : p.replicas) {
    double least = p.completion_time(replicas.front(), 1);
    for (const DiskId d : replicas) {
      least = std::min(least, p.completion_time(d, 1));
    }
    lower = std::max(lower, least);
  }
  return lower;
}

/// Runs the driver on a RecordingKernel and checks its seed: exactly one,
/// before the first snapshot, one entry per bucket naming a replica (or -1),
/// and no disk loaded past its slots under the lower bound.  Returns the
/// probes; the seed goes to `seeded` when given.
std::vector<double> driver_probes(const RetrievalProblem& p, double optimum,
                                  std::vector<std::int32_t>* seeded = nullptr) {
  RecordingKernel kernel(p.query_size(), optimum);
  SolveResult result;
  BinaryScalingDriver().run(p, p.disk_in_degrees(), kernel, result,
                            "alg6.probe");
  EXPECT_EQ(result.binary_probes, std::ssize(kernel.probes));
  EXPECT_EQ(kernel.calls.substr(0, 2), "sv");
  EXPECT_EQ(std::count(kernel.calls.begin(), kernel.calls.end(), 's'), 1);
  EXPECT_EQ(std::ssize(kernel.seeded), p.query_size());
  const double lower = search_lower_bound(p);
  std::vector<std::int64_t> load(static_cast<std::size_t>(p.total_disks()));
  for (std::size_t b = 0; b < kernel.seeded.size(); ++b) {
    const DiskId d = kernel.seeded[b];
    if (d == -1) continue;
    const auto& replicas = p.replicas[b];
    EXPECT_NE(std::find(replicas.begin(), replicas.end(), d), replicas.end())
        << "bucket " << b << " seeded on disk " << d;
    ++load[static_cast<std::size_t>(d)];
  }
  for (DiskId d = 0; d < p.total_disks(); ++d) {
    EXPECT_LE(load[static_cast<std::size_t>(d)],
              p.system.slots_within(d, lower))
        << "disk " << d;
  }
  if (seeded != nullptr) *seeded = kernel.seeded;
  return kernel.probes;
}

TEST(SearchWindow, ProbesStayBetweenCountBoundAndGreedy) {
  RetrievalProblem p = tiny_problem();
  p.system.cost_ms = {2.0, 4.0};
  p.system.delay_ms = {1.0, 0.0};
  // The paper's window: tmax = max(1 + 3*2, 0 + 3*4) = 12 and
  // tmin = min(1 + 1.5*2, 0 + 1.5*4) = 4.  The greedy sends bucket 0 to
  // disk 0 (3 < 4), bucket 1 to disk 0 (5) and bucket 2 to disk 1 (4): T = 5.
  // The completions up to 5 are 3, 5 (disk 0) and 4 (disk 1); the 3rd
  // smallest is 5.  So the window is [5, 5], inside [4, 12], and one probe
  // ends the search.  Every greedy pick fits caps(5), so the seed is the
  // whole greedy schedule.
  std::vector<std::int32_t> seeded;
  EXPECT_EQ(driver_probes(p, 5.0, &seeded), std::vector<double>{5.0});
  EXPECT_EQ(seeded, (std::vector<std::int32_t>{0, 0, 1}));

  // Greedy above the optimum: bucket 0 ties on 1 and takes disk 0, listed
  // first, so bucket 1 makes T = 2.  The completions up to 2 are 1, 2 and 1;
  // the 2nd smallest is 1, the optimum, and the first probe settles it.
  // Disk 0 has one slot under 1, so the seed leaves bucket 1 unassigned.
  RetrievalProblem above = tiny_problem();
  above.replicas = {{0, 1}, {0}};
  EXPECT_EQ(driver_probes(above, 1.0, &seeded), std::vector<double>{1.0});
  EXPECT_EQ(seeded, (std::vector<std::int32_t>{0, -1}));

  // A loose lower bound: disk 0 must serve buckets 0 and 1, so T* = 2, which
  // the greedy reaches.  The completions up to 2 are 1, 2 (disk 0), 1 and 1
  // (disks 1, 2); the 3rd smallest is 1, an infeasible probe, and the
  // search ends at the greedy T.  Disk 0 has one slot under the lower bound
  // 1, so the greedy's second bucket there starts unassigned.
  RetrievalProblem loose;
  loose.system = unit_system(3);
  loose.replicas = {{0}, {0}, {1, 2}};
  EXPECT_EQ(driver_probes(loose, 2.0, &seeded),
            (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(seeded, (std::vector<std::int32_t>{0, -1, 1}));
}

TEST(SearchWindow, BucketBoundSkipsProbesBelowIt) {
  // Bucket 0 lives only on the slow disk 1, so T* >= 10 = C_1, and the
  // fast disks 0 and 2 share buckets 1-3.  The |Q|-th (4th) smallest
  // completion is only 2 (1, 1, 2, 2, 3, 3, 10), which would leave 2, 2, 3
  // and 3 to probe below the greedy T = 10.  The bucket bound is 10 = the
  // greedy T, so one probe at 10 ends the search.
  RetrievalProblem p;
  p.system = unit_system(3);
  p.system.cost_ms = {1.0, 10.0, 1.0};
  p.replicas = {{1}, {0, 2}, {0, 2}, {0, 2}};
  p.validate();
  std::vector<std::int32_t> seeded;
  EXPECT_EQ(driver_probes(p, 10.0, &seeded), std::vector<double>{10.0});
  // caps(10) holds the whole greedy schedule.
  EXPECT_EQ(seeded, (std::vector<std::int32_t>{1, 0, 2, 0}));
  for (SolverKind kind :
       {SolverKind::kPushRelabelBinary, SolverKind::kIntegratedMatching,
        SolverKind::kBlackBoxBinary, SolverKind::kParallelPushRelabelBinary}) {
    const SolveResult r = solve(p, kind, 2);
    EXPECT_EQ(r.response_time_ms, 10.0) << solver_name(kind);
    EXPECT_EQ(r.binary_probes, 1) << solver_name(kind);
    EXPECT_TRUE(analysis::check_schedule_feasibility(p, r.schedule).ok())
        << solver_name(kind);
  }
}

TEST(ScheduleTest, ResponseTimeAndBottleneck) {
  const RetrievalProblem p = tiny_problem();
  Schedule s;
  s.assigned_disk = {0, 0, 1};
  s.per_disk_count = {2, 1};
  EXPECT_DOUBLE_EQ(s.response_time(p.system), 2.0);
  EXPECT_EQ(s.bottleneck_disk(p.system), 0);
  EXPECT_TRUE(analysis::check_schedule_feasibility(p, s).ok());
  s.assigned_disk = {1, 0, 1};  // bucket 1 is only on disk 0
  s.per_disk_count = {1, 2};
  EXPECT_FALSE(
      analysis::check_schedule_feasibility(p, {{1, 1, 1}, {0, 3}}).ok());
}

TEST(Solvers, TinyProblemAllAgree) {
  const RetrievalProblem p = tiny_problem();
  // Optimal: bucket1->disk0, bucket2->disk1, bucket0->either = 2 accesses
  // max on one disk... actually 2 buckets cannot avoid one disk taking 2?
  // |Q|=3 on 2 disks: someone takes 2 -> response 2.0.
  const double expected = 2.0;
  for (SolverKind kind :
       {SolverKind::kFordFulkersonBasic, SolverKind::kFordFulkersonIncremental,
        SolverKind::kPushRelabelIncremental, SolverKind::kPushRelabelBinary,
        SolverKind::kBlackBoxBinary, SolverKind::kParallelPushRelabelBinary}) {
    const SolveResult r = solve(p, kind, 2);
    EXPECT_EQ(r.response_time_ms, expected)
        << solver_name(kind);
    EXPECT_TRUE(analysis::check_schedule_feasibility(p, r.schedule).ok())
        << solver_name(kind);
  }
  EXPECT_EQ(ReferenceSolver(p).solve().response_time_ms, expected);
}

TEST(Solvers, ForcedSingleDiskBucket) {
  // All buckets replicated only on disk 0: response = |Q| * C0.
  RetrievalProblem p;
  p.system = unit_system(3);
  p.replicas = {{0}, {0}, {0}, {0}};
  p.validate();
  for (SolverKind kind :
       {SolverKind::kFordFulkersonBasic, SolverKind::kFordFulkersonIncremental,
        SolverKind::kPushRelabelIncremental, SolverKind::kPushRelabelBinary,
        SolverKind::kBlackBoxBinary}) {
    EXPECT_EQ(solve(p, kind).response_time_ms, 4.0)
        << solver_name(kind);
  }
}

TEST(Solvers, HeterogeneousPrefersFastDisk) {
  // Disk 0 is 10x slower; both buckets replicated on both disks.
  RetrievalProblem p;
  p.system = unit_system(2);
  p.system.cost_ms = {10.0, 1.0};
  p.replicas = {{0, 1}, {0, 1}};
  p.validate();
  // Optimal: both on disk 1 -> 2ms (vs 10ms if split).
  for (SolverKind kind :
       {SolverKind::kFordFulkersonIncremental,
        SolverKind::kPushRelabelIncremental, SolverKind::kPushRelabelBinary,
        SolverKind::kBlackBoxBinary, SolverKind::kParallelPushRelabelBinary}) {
    const SolveResult r = solve(p, kind, 2);
    EXPECT_EQ(r.response_time_ms, 2.0) << solver_name(kind);
    EXPECT_EQ(r.schedule.per_disk_count[1], 2) << solver_name(kind);
  }
}

TEST(Solvers, DelaysAndInitialLoadsShiftTheChoice) {
  // Fast disk behind a big delay loses to a slower local disk.
  RetrievalProblem p;
  p.system = unit_system(2);
  p.system.cost_ms = {1.0, 0.1};
  p.system.delay_ms = {0.0, 50.0};
  p.replicas = {{0, 1}, {0, 1}, {0, 1}};
  p.validate();
  // All three on disk 0: 3ms.  Any use of disk 1 costs >= 50.1ms.
  for (SolverKind kind :
       {SolverKind::kFordFulkersonIncremental,
        SolverKind::kPushRelabelIncremental, SolverKind::kPushRelabelBinary,
        SolverKind::kBlackBoxBinary}) {
    const SolveResult r = solve(p, kind);
    EXPECT_EQ(r.response_time_ms, 3.0) << solver_name(kind);
    EXPECT_EQ(r.schedule.per_disk_count[0], 3) << solver_name(kind);
  }
}

TEST(Solvers, TableTwoParameters) {
  // The paper's worked example (Table II): 14 disks on 2 sites, 7x7
  // orthogonal grid, query q1 = 3x2 range at (0, 0).
  auto rep = decluster::make_orthogonal(7, SiteMapping::kCopyPerSite);
  workload::SystemConfig sys;
  sys.num_sites = 2;
  sys.disks_per_site = 7;
  sys.cost_ms.assign(14, 0.0);
  sys.delay_ms.assign(14, 0.0);
  sys.init_load_ms.assign(14, 0.0);
  sys.model.assign(14, "tbl2");
  for (int d = 0; d <= 6; ++d) {
    sys.cost_ms[d] = 8.3;
    sys.delay_ms[d] = 2.0;
    sys.init_load_ms[d] = 1.0;
  }
  for (int d : {7, 8, 10, 13}) sys.cost_ms[d] = 6.1, sys.delay_ms[d] = 1.0;
  for (int d : {9, 11, 12}) sys.cost_ms[d] = 13.2, sys.delay_ms[d] = 1.0;
  const Query q1 = RangeQuery{0, 0, 3, 2}.buckets(7);
  auto problem = build_problem(rep, q1, sys);
  const double reference = ReferenceSolver(problem).solve().response_time_ms;
  for (SolverKind kind :
       {SolverKind::kFordFulkersonIncremental,
        SolverKind::kPushRelabelIncremental, SolverKind::kPushRelabelBinary,
        SolverKind::kBlackBoxBinary, SolverKind::kParallelPushRelabelBinary}) {
    const SolveResult r = solve(problem, kind, 2);
    EXPECT_EQ(r.response_time_ms, reference) << solver_name(kind);
    EXPECT_TRUE(analysis::check_schedule_feasibility(problem, r.schedule).ok())
        << solver_name(kind);
  }
  // With 6 buckets, 6 distinct replica disks exist (orthogonality), so at
  // most 1 bucket per disk; the optimum is one block from the costliest
  // disk class actually used.
  const SolveResult best = solve(problem, SolverKind::kPushRelabelBinary);
  for (auto count : best.schedule.per_disk_count) EXPECT_LE(count, 2);
}

TEST(Solvers, BasicSolverRejectsGeneralizedSystems) {
  RetrievalProblem p = tiny_problem();
  p.system.cost_ms = {1.0, 2.0};
  FordFulkersonBasicSolver solver;
  SolveResult result;
  EXPECT_THROW(solver.solve_into(p, result), std::invalid_argument);
}

TEST(Solvers, BlackBoxCountsRunsIntegratedDoesNot) {
  Rng rng(21);
  auto rep = decluster::make_orthogonal(6, SiteMapping::kCopyPerSite);
  auto sys = workload::make_experiment_system(5, 6, rng);
  const Query q = RangeQuery{1, 1, 4, 3}.buckets(6);
  auto problem = build_problem(rep, q, sys);
  const SolveResult bb = solve(problem, SolverKind::kBlackBoxBinary);
  const SolveResult integrated = solve(problem, SolverKind::kPushRelabelBinary);
  EXPECT_GT(bb.maxflow_runs, 0);
  EXPECT_EQ(integrated.maxflow_runs, 0);
  EXPECT_GT(integrated.binary_probes, 0);
  EXPECT_EQ(bb.response_time_ms, integrated.response_time_ms);
}

TEST(Solvers, SolverNamesAreDistinct) {
  std::set<std::string> names;
  for (SolverKind kind : kAllSolverKinds) {
    names.insert(solver_name(kind));
  }
  EXPECT_EQ(names.size(), kSolverKindCount);
}

}  // namespace
}  // namespace repflow::core
