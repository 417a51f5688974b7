// Tests for the extended core modules: the discrete-event simulator, the
// exhaustive brute-force oracle, the query-stream scheduler, and trace I/O.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>

#include "core/brute_force.h"
#include "core/reference.h"
#include "core/simulator.h"
#include "core/solve.h"
#include "core/stream.h"
#include "core/trace.h"
#include "decluster/schemes.h"
#include "support/rng.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

namespace repflow::core {
namespace {

constexpr double kTimeEps = 1e-6;

workload::SystemConfig two_disk_system() {
  workload::SystemConfig sys;
  sys.num_sites = 1;
  sys.disks_per_site = 2;
  sys.cost_ms = {2.0, 3.0};
  sys.delay_ms = {1.0, 0.0};
  sys.init_load_ms = {0.0, 4.0};
  sys.model = {"A", "B"};
  return sys;
}

TEST(Simulator, MatchesAnalyticalModelExactly) {
  RetrievalProblem p;
  p.system = two_disk_system();
  p.replicas = {{0, 1}, {0, 1}, {0}, {1}};
  p.validate();
  Schedule s;
  s.assigned_disk = {0, 1, 0, 1};
  s.per_disk_count = {2, 2};
  const SimResult sim = simulate_schedule(p, s);
  // Disk 0: starts at D+X = 1, two blocks of 2ms -> done at 5.
  // Disk 1: starts at 0+4 = 4, two blocks of 3ms -> done at 10.
  EXPECT_DOUBLE_EQ(sim.disk_done_ms[0], 5.0);
  EXPECT_DOUBLE_EQ(sim.disk_done_ms[1], 10.0);
  EXPECT_DOUBLE_EQ(sim.response_ms, 10.0);
  EXPECT_DOUBLE_EQ(sim.response_ms, s.response_time(p.system));
  EXPECT_EQ(sim.events.size(), 4u);
  EXPECT_FALSE(sim.timeline().empty());
}

TEST(Simulator, EventsAreSerialPerDisk) {
  Rng rng(55);
  const auto rep = decluster::make_orthogonal(
      6, decluster::SiteMapping::kCopyPerSite);
  const auto sys = workload::make_experiment_system(5, 6, rng);
  const workload::QueryGenerator gen(6, workload::QueryType::kArbitrary,
                                     workload::LoadKind::kLoad2);
  const auto problem = build_problem(rep, gen.next(rng), sys);
  const auto result = solve(problem, SolverKind::kPushRelabelBinary);
  const SimResult sim = simulate_schedule(problem, result.schedule);
  EXPECT_NEAR(sim.response_ms, result.response_time_ms, kTimeEps);
  // No two events of the same disk overlap.
  std::vector<double> last_end(problem.total_disks(), -1.0);
  for (const auto& e : sim.events) {
    EXPECT_GE(e.start_ms, last_end[e.disk] - kTimeEps);
    last_end[e.disk] = e.end_ms;
  }
}

TEST(Simulator, RejectsMalformedSchedules) {
  RetrievalProblem p;
  p.system = two_disk_system();
  p.replicas = {{0}};
  p.validate();
  Schedule s;
  s.assigned_disk = {0, 1};  // wrong arity
  EXPECT_THROW(simulate_schedule(p, s), std::invalid_argument);
  s.assigned_disk = {9};
  EXPECT_THROW(simulate_schedule(p, s), std::invalid_argument);
}

class BruteForceAgrees : public ::testing::TestWithParam<int> {};

TEST_P(BruteForceAgrees, WithAllSolversOnTinyInstances) {
  Rng rng(600 + GetParam());
  // Tiny random instance: <= 8 buckets, 2-3 replicas each, 4 disks.
  RetrievalProblem p;
  p.system.num_sites = 2;
  p.system.disks_per_site = 2;
  for (int d = 0; d < 4; ++d) {
    p.system.cost_ms.push_back(0.5 + static_cast<double>(rng.below(20)));
    p.system.delay_ms.push_back(static_cast<double>(rng.below(8)));
    p.system.init_load_ms.push_back(static_cast<double>(rng.below(6)));
    p.system.model.push_back("T");
  }
  const auto buckets = 1 + rng.below(8);
  for (std::uint64_t b = 0; b < buckets; ++b) {
    const auto replica_count = 2 + rng.below(2);
    auto picks = rng.sample_without_replacement(
        4, static_cast<std::uint32_t>(replica_count));
    p.replicas.push_back({picks.begin(), picks.end()});
  }
  p.validate();

  const double exhaustive = BruteForceSolver(p).solve().response_time_ms;
  EXPECT_NEAR(ReferenceSolver(p).solve().response_time_ms, exhaustive,
              kTimeEps);
  for (SolverKind kind : kAllSolverKinds) {
    if (kind == SolverKind::kFordFulkersonBasic) continue;  // basic-only
    EXPECT_NEAR(solve(p, kind, 2).response_time_ms, exhaustive, kTimeEps)
        << solver_name(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(TinySweep, BruteForceAgrees, ::testing::Range(0, 30));

TEST(BruteForce, RejectsHugeSearchSpaces) {
  RetrievalProblem p;
  p.system = two_disk_system();
  for (int b = 0; b < 40; ++b) p.replicas.push_back({0, 1});
  p.validate();
  EXPECT_THROW(BruteForceSolver(p, 1000).solve(), std::invalid_argument);
}

TEST(Stream, BacklogRaisesResponseTimes) {
  const std::int32_t n = 6;
  const auto rep =
      decluster::make_orthogonal(n, decluster::SiteMapping::kCopyPerSite);
  Rng rng(77);
  auto sys = workload::make_experiment_system(1, n, rng);  // homogeneous
  QueryStreamScheduler stream(rep, sys, ExecutionPolicy{});
  const workload::Query big = workload::RangeQuery{0, 0, 6, 6}.buckets(n);

  // Two identical queries back-to-back: the second must wait for the
  // backlog the first left behind.
  const auto first = stream.submit(big, 0.0);
  const auto second = stream.submit(big, 0.0);
  EXPECT_GT(second.response_ms, first.response_ms);
  EXPECT_GT(second.max_initial_load_ms, 0.0);
  EXPECT_DOUBLE_EQ(first.max_initial_load_ms, 0.0);

  // After a long idle gap the backlog drains and response recovers.
  const auto third = stream.submit(big, 1e6);
  EXPECT_NEAR(third.response_ms, first.response_ms, kTimeEps);

  const StreamStats stats = stream.stats();
  EXPECT_EQ(stats.queries, 3);
  EXPECT_GE(stats.response_time.max, second.response_ms - kTimeEps);
  EXPECT_GT(stats.makespan_ms, 1e6);
}

TEST(Stream, RejectsTimeTravel) {
  const std::int32_t n = 4;
  const auto rep =
      decluster::make_orthogonal(n, decluster::SiteMapping::kCopyPerSite);
  Rng rng(78);
  QueryStreamScheduler stream(rep, workload::make_experiment_system(1, n, rng),
                              ExecutionPolicy{});
  stream.submit({0, 1}, 10.0);
  EXPECT_THROW(stream.submit({2}, 5.0), std::invalid_argument);
}

TEST(Stream, BusyHorizonMatchesSchedules) {
  const std::int32_t n = 5;
  const auto rep =
      decluster::make_orthogonal(n, decluster::SiteMapping::kCopyPerSite);
  Rng rng(79);
  auto sys = workload::make_experiment_system(2, n, rng);
  QueryStreamScheduler stream(rep, sys, ExecutionPolicy{});
  const auto event = stream.submit(workload::RangeQuery{0, 0, 3, 3}.buckets(n),
                                   2.0);
  for (std::int32_t d = 0; d < 2 * n; ++d) {
    if (event.schedule.per_disk_count[d] > 0) {
      EXPECT_GT(stream.disk_free_at(d), 2.0);
    } else {
      EXPECT_DOUBLE_EQ(stream.disk_free_at(d), 0.0);
    }
  }
}

TEST(Trace, RoundTripPreservesProblems) {
  Rng rng(90);
  const std::int32_t n = 5;
  const auto rep = decluster::make_rda(
      n, 2, decluster::SiteMapping::kCopyPerSite, rng);
  const auto sys = workload::make_experiment_system(5, n, rng);
  const workload::QueryGenerator gen(n, workload::QueryType::kArbitrary,
                                     workload::LoadKind::kLoad3);

  Trace trace;
  trace.system = sys;
  for (int qi = 0; qi < 4; ++qi) {
    const auto query = gen.next(rng);
    Trace::TraceQuery tq;
    for (auto b : query) {
      tq.bucket_ids.push_back(b);
      tq.replicas.push_back(rep.replica_disks_unique(b / n, b % n));
    }
    trace.queries.push_back(std::move(tq));
  }

  const std::string text = write_trace_string(trace);
  const Trace loaded = read_trace_string(text);
  ASSERT_EQ(loaded.queries.size(), trace.queries.size());
  for (std::size_t qi = 0; qi < trace.queries.size(); ++qi) {
    const auto original = trace.problem(qi);
    const auto replayed = loaded.problem(qi);
    EXPECT_EQ(original.replicas, replayed.replicas);
    EXPECT_NEAR(solve(original, SolverKind::kPushRelabelBinary).response_time_ms,
                solve(replayed, SolverKind::kPushRelabelBinary).response_time_ms,
                kTimeEps);
  }
  // Serialization is stable.
  EXPECT_EQ(write_trace_string(loaded), text);
}

TEST(Trace, RejectsMalformedInput) {
  EXPECT_THROW(read_trace_string("nope\n"), std::runtime_error);
  EXPECT_THROW(read_trace_string("trace v1\n"), std::runtime_error);
  EXPECT_THROW(read_trace_string("trace v1\nsystem 1 1\n"),
               std::runtime_error);  // missing disk
  EXPECT_THROW(
      read_trace_string("trace v1\nsystem 1 1\ndisk 0 M 1 0 0\nbucket 0 0\n"),
      std::runtime_error);  // bucket outside query
  EXPECT_THROW(
      read_trace_string(
          "trace v1\nsystem 1 1\ndisk 0 M 1 0 0\nquery 0 1\nbucket 0 7\n"),
      std::runtime_error);  // replica out of range
  EXPECT_THROW(read_trace_string(
                   "trace v1\nsystem 1 1\ndisk 0 M 1 0 0\nquery 0 2\n"
                   "bucket 0 0\n"),
               std::runtime_error);  // incomplete query
}

// Every parse error names the offending 1-based line.
void expect_trace_error(const std::string& text, const std::string& line_tag,
                        const std::string& why_fragment) {
  try {
    read_trace_string(text);
    FAIL() << "expected std::runtime_error for: " << why_fragment;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("read_trace: " + line_tag), std::string::npos)
        << what;
    EXPECT_NE(what.find(why_fragment), std::string::npos) << what;
  }
}

TEST(Trace, MalformedInputErrorsCarryLineNumbers) {
  expect_trace_error("nope\n", "line 1", "missing 'trace v1' header");
  // Truncated header: EOF before any content line.
  expect_trace_error("", "line 1", "missing 'trace v1' header");
  expect_trace_error("trace v1\n", "line 2", "missing system line");
  // Disk count mismatch reports both sides of the disagreement.
  expect_trace_error("trace v1\nsystem 1 2\ndisk 0 M 1 0 0\n", "line 4",
                     "disk count mismatch: saw 1 disk lines, system declares "
                     "2");
  expect_trace_error(
      "trace v1\nsystem 1 1\ndisk 0 M 1 0 0\nquery 0 1\nbucket 0\n", "line 5",
      "bucket without replicas");
  expect_trace_error(
      "trace v1\nsystem 1 1\ndisk 0 M 1 0 0\nquery 0 1\nbucket 0 3\n",
      "line 5", "replica disk out of range");
  expect_trace_error("trace v1\nsystem 1 1\ndisk 0 M 1 0 0\nbucket 0 0\n",
                     "line 4", "bucket outside query");
  expect_trace_error(
      "trace v1\nsystem 1 1\ndisk 0 M 1 0 0\nquery 0 2\nbucket 0 0\n",
      "line 6", "trailing incomplete query: 1 bucket line(s) missing");
  expect_trace_error("trace v1\nsystem 1 1\ndisk 0 M 1 0 0\nwhat 1 2\n",
                     "line 4", "unknown line kind 'what'");
}

TEST(Trace, NonFiniteDiskParametersCarryLineNumbers) {
  expect_trace_error(
      "trace v1\nsystem 1 2\ndisk 0 M 1 0 0\ndisk 1 M nan 0 0\n", "line 4",
      "non-finite disk parameter 'nan'");
  expect_trace_error("trace v1\nsystem 1 1\ndisk 0 M 1 inf 0\n", "line 3",
                     "non-finite disk parameter 'inf'");
  expect_trace_error("trace v1\nsystem 1 1\ndisk 0 M 1 0 1e999\n", "line 3",
                     "non-finite disk parameter '1e999'");
  expect_trace_error("trace v1\nsystem 1 1\ndisk 0 M 1 0 1x\n", "line 3",
                     "bad disk line");
}

// Compile-time exhaustiveness: solver_name/solver_id/solver_kind_from_id are
// all generated from REPFLOW_SOLVER_CATALOG, so a SolverKind missing any of
// its catalog entries fails these static_asserts (i.e. compilation, not a
// runtime test).  The lambda runs over the generated kAllSolverKinds list so
// new enumerators are covered automatically.
constexpr bool catalog_is_exhaustive() {
  for (SolverKind kind : kAllSolverKinds) {
    const char* name = solver_name(kind);
    const char* id = solver_id(kind);
    if (name == nullptr || id == nullptr) return false;
    if (name[0] == '\0' || id[0] == '\0') return false;
    if (name[0] == '?' || id[0] == '?') return false;  // switch fallback
    // Round-trip: the id must parse back to the same enumerator.
    const auto parsed = solver_kind_from_id(id);
    if (!parsed.has_value() || *parsed != kind) return false;
  }
  return true;
}
static_assert(catalog_is_exhaustive(),
              "every SolverKind needs a REPFLOW_SOLVER_CATALOG entry");
static_assert(kSolverKindCount == std::size(kAllSolverKinds));
static_assert(solver_kind_from_id("matching") ==
              SolverKind::kIntegratedMatching);
static_assert(!solver_kind_from_id("no-such-solver").has_value());

TEST(Solver, NameAndIdCoverEveryKind) {
  std::set<std::string> names;
  std::set<std::string> ids;
  for (SolverKind kind : kAllSolverKinds) {
    names.insert(solver_name(kind));
    ids.insert(solver_id(kind));
  }
  // Labels are distinct per enumerator (catch copy-paste in the catalog).
  EXPECT_EQ(names.size(), kSolverKindCount);
  EXPECT_EQ(ids.size(), kSolverKindCount);
  EXPECT_TRUE(ids.contains("alg6"));
  EXPECT_TRUE(ids.contains("blackbox"));
  EXPECT_TRUE(ids.contains("matching"));
}

TEST(Trace, ProblemIndexOutOfRange) {
  Trace trace;
  trace.system = two_disk_system();
  EXPECT_THROW(trace.problem(0), std::out_of_range);
}

// Metamorphic properties of the optimizer.
class Metamorphic : public ::testing::TestWithParam<int> {};

TEST_P(Metamorphic, OptimizerRespondsMonotonically) {
  Rng rng(700 + GetParam());
  const std::int32_t n = 5;
  const auto rep = decluster::make_scheme(
      static_cast<decluster::Scheme>(rng.below(3)), n,
      decluster::SiteMapping::kCopyPerSite, rng);
  const auto sys = workload::make_experiment_system(
      1 + static_cast<std::int32_t>(rng.below(5)), n, rng);
  const workload::QueryGenerator gen(n, workload::QueryType::kArbitrary,
                                     workload::LoadKind::kLoad2);
  const auto query = gen.next(rng);
  auto problem = build_problem(rep, query, sys);
  const double baseline =
      solve(problem, SolverKind::kPushRelabelBinary).response_time_ms;

  // (1) Slowing one disk can never help.
  {
    auto slower = problem;
    const auto victim = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(slower.system.total_disks())));
    slower.system.cost_ms[victim] *= 3.0;
    EXPECT_GE(solve(slower, SolverKind::kPushRelabelBinary).response_time_ms,
              baseline - kTimeEps);
  }
  // (2) Adding delay to one site can never help.
  {
    auto delayed = problem;
    for (std::int32_t d = 0; d < n; ++d) delayed.system.delay_ms[d] += 5.0;
    EXPECT_GE(solve(delayed, SolverKind::kPushRelabelBinary).response_time_ms,
              baseline - kTimeEps);
  }
  // (3) Granting every bucket an extra replica on a new ultra-fast disk can
  //     never hurt.
  {
    auto richer = problem;
    const auto extra = richer.system.total_disks();
    richer.system.disks_per_site += 1;  // model: one more disk per site rows
    // Rebuild vectors: append one disk to the flat arrays.
    richer.system.num_sites = 1;
    richer.system.disks_per_site = extra + 1;
    richer.system.cost_ms.push_back(0.01);
    richer.system.delay_ms.push_back(0.0);
    richer.system.init_load_ms.push_back(0.0);
    richer.system.model.push_back("turbo");
    for (auto& replicas : richer.replicas) replicas.push_back(extra);
    richer.validate();
    EXPECT_LE(solve(richer, SolverKind::kPushRelabelBinary).response_time_ms,
              baseline + kTimeEps);
  }
  // (4) Dropping buckets from the query can never hurt.
  {
    if (problem.query_size() > 1) {
      auto smaller = problem;
      smaller.replicas.resize(smaller.replicas.size() / 2 + 1);
      EXPECT_LE(
          solve(smaller, SolverKind::kPushRelabelBinary).response_time_ms,
          baseline + kTimeEps);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Metamorphic, ::testing::Range(0, 20));

}  // namespace
}  // namespace repflow::core
