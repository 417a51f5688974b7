// Tests for the observability layer: metrics registry, span tracer,
// exporters, and the instrumentation hooks in the stream scheduler and the
// parallel engine.  Every test compiles in both builds.  Value-level tests
// skip when the kill switch is off (obs::kEnabled false); there
// Obs.DisabledBuildReportsNothing drives every recording path and asserts
// that nothing was recorded.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "core/bipartite_matching.h"
#include "core/solve.h"
#include "decluster/schemes.h"
#include "obs/export_csv.h"
#include "obs/export_json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "support/rng.h"
#include "workload/experiments.h"

namespace repflow::obs {
namespace {

// The full API must compile and be callable in both build modes.
TEST(Obs, ApiSurfaceIsAlwaysAvailable) {
  Counter c;
  c.add();
  c.add(3);
  Gauge g;
  g.set(1.5);
  Histogram h;
  h.observe(1.0);
  HistogramTally tally;
  tally.observe(2.0);
  h.merge(tally);
  tally.clear();
  { ScopedLatency latency(h); }
  { ScopedSpan span("obs_test.api"); }
  Registry::global().counter("obs_test.api_counter").add();
  Tracer::global().set_enabled(false);
  const MetricsSnapshot snapshot = Registry::global().snapshot();
  const std::string json = metrics_json_string(snapshot);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Counter, AddAndReset) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, LastWriteWins) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  Gauge g;
  g.set(2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketBoundsAreGeometric) {
  EXPECT_DOUBLE_EQ(Histogram::bucket_bound(0), Histogram::kFirstBoundMs);
  for (int i = 1; i + 1 < Histogram::kBucketCount; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::bucket_bound(i),
                     2.0 * Histogram::bucket_bound(i - 1));
  }
  EXPECT_TRUE(std::isinf(Histogram::bucket_bound(Histogram::kBucketCount - 1)));
}

TEST(Histogram, PlacesValuesInCoveringBuckets) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  Histogram h;
  h.observe(0.5 * Histogram::kFirstBoundMs);  // underflow bucket 0
  h.observe(Histogram::kFirstBoundMs);        // inclusive upper bound -> 0
  h.observe(1.5 * Histogram::kFirstBoundMs);  // bucket 1: (f, 2f]
  h.observe(1e12);                            // overflow bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::kBucketCount - 1), 1u);
}

TEST(Histogram, SummaryStatistics) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(1.0);
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 100.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  // Every percentile reports the upper bound of the containing bucket,
  // clamped to the observed max: exactly 1.0 here.
  EXPECT_DOUBLE_EQ(s.p50, 1.0);
  EXPECT_DOUBLE_EQ(s.p99, 1.0);
}

TEST(Histogram, PercentilesSeparateBimodalData) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(0.01);
  for (int i = 0; i < 10; ++i) h.observe(100.0);
  const HistogramSummary s = h.summary();
  // p50 lands in the low mode, p99 in the high mode; the bucket estimate
  // errs high by at most one bucket width (a factor of 2).
  EXPECT_LE(s.p50, 0.02);
  EXPECT_GE(s.p99, 100.0);
  EXPECT_LE(s.p99, 200.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  h.reset();
  EXPECT_EQ(h.summary().count, 0u);
}

// A tally merged once lands exactly where observing its values one by one
// would: every bucket, count, sum, min and max.
TEST(Histogram, MergeEqualsObservingEachValue) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  const double values[] = {5.0, 1.0, 0.5 * Histogram::kFirstBoundMs, 3.0,
                           1e12, 1.0, 7.0, Histogram::kFirstBoundMs};
  Histogram observed;
  HistogramTally tally;
  for (const double v : values) {
    observed.observe(v);
    tally.observe(v);
  }
  EXPECT_EQ(tally.count(), std::size(values));
  Histogram merged;
  merged.merge(tally);
  for (int i = 0; i < Histogram::kBucketCount; ++i) {
    EXPECT_EQ(merged.bucket_count(i), observed.bucket_count(i)) << i;
  }
  const HistogramSummary a = observed.summary();
  const HistogramSummary b = merged.summary();
  EXPECT_EQ(b.count, a.count);
  EXPECT_EQ(b.sum, a.sum);
  EXPECT_EQ(b.min, a.min);
  EXPECT_EQ(b.max, a.max);

  // Merging into a non-empty histogram widens min/max like observe().
  HistogramTally low;
  low.observe(1e-9);
  observed.observe(1e-9);
  merged.merge(low);
  EXPECT_EQ(merged.summary().min, observed.summary().min);
  EXPECT_EQ(merged.summary().count, observed.summary().count);
  // An empty tally changes nothing.
  low.clear();
  merged.merge(low);
  EXPECT_EQ(merged.summary().count, observed.summary().count);
}

TEST(Registry, HandlesAreStableAndNamed) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  Registry& reg = Registry::global();
  Counter& a = reg.counter("obs_test.stable");
  Counter& b = reg.counter("obs_test.stable");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(7);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_TRUE(snap.counters.contains("obs_test.stable"));
  EXPECT_EQ(snap.counters.at("obs_test.stable"), 7u);
}

TEST(Registry, ResetValuesKeepsHandlesValid) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  Registry& reg = Registry::global();
  Counter& c = reg.counter("obs_test.reset_me");
  Histogram& h = reg.histogram("obs_test.reset_hist");
  c.add(5);
  h.observe(1.0);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.summary().count, 0u);
  c.add(2);  // handle still live after reset
  EXPECT_EQ(c.value(), 2u);
}

TEST(Tracer, RecordsSpansWhenEnabled) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.clear();
  { ScopedSpan span("obs_test.outer"); ScopedSpan inner("obs_test.inner"); }
  tracer.set_enabled(false);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Destruction order: inner completes first.
  EXPECT_STREQ(spans[0].name, "obs_test.inner");
  EXPECT_STREQ(spans[1].name, "obs_test.outer");
  EXPECT_GE(spans[0].start_ms, 0.0);
  EXPECT_GE(spans[0].duration_ms, 0.0);
  EXPECT_GE(spans[1].duration_ms, spans[0].duration_ms);
  EXPECT_EQ(spans[0].thread, spans[1].thread);
}

TEST(Tracer, DisabledSpansCostNothingAndRecordNothing) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(false);
  tracer.clear();
  { ScopedSpan span("obs_test.ghost"); }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Tracer, ThreadsGetDenseIndices) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.clear();
  { ScopedSpan span("obs_test.main_thread"); }
  std::thread worker([] { ScopedSpan span("obs_test.worker_thread"); });
  worker.join();
  tracer.set_enabled(false);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].thread, spans[1].thread);
}

TEST(ExportJson, ShapeAndEscaping) {
  MetricsSnapshot snap;
  snap.counters["with \"quote\""] = 3;
  snap.gauges["g"] = 1.25;
  MetricsSnapshot::HistogramData hd;
  hd.summary.count = 1;
  hd.summary.sum = hd.summary.min = hd.summary.max = hd.summary.mean = 2.0;
  hd.summary.p50 = hd.summary.p95 = hd.summary.p99 = 2.0;
  hd.bucket_bounds = {1.0, std::numeric_limits<double>::infinity()};
  hd.bucket_counts = {0, 1};
  snap.histograms["h"] = hd;
  const std::vector<SpanRecord> spans = {{"s", 0, 0.5, 1.5}};
  const std::string json = metrics_json_string(snap, spans);
  EXPECT_NE(json.find("\"with \\\"quote\\\"\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"g\": 1.25"), std::string::npos);
  // Overflow bound is null; the zero-count bucket is omitted.
  EXPECT_NE(json.find("\"le_ms\": null"), std::string::npos);
  EXPECT_EQ(json.find("\"le_ms\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"duration_ms\": 1.5"), std::string::npos);
}

TEST(ExportCsv, LongFormatRoundTrip) {
  MetricsSnapshot snap;
  snap.counters["c"] = 9;
  const std::string metrics_path = testing::TempDir() + "obs_metrics.csv";
  ASSERT_TRUE(write_metrics_csv(metrics_path, snap));
  const std::string metrics = read_file(metrics_path);
  EXPECT_NE(metrics.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(metrics.find("counter,c,value,9"), std::string::npos);

  const std::vector<SpanRecord> spans = {{"s", 1, 0.0, 2.0}};
  const std::string spans_path = testing::TempDir() + "obs_spans.csv";
  ASSERT_TRUE(write_spans_csv(spans_path, spans));
  const std::string spans_csv = read_file(spans_path);
  EXPECT_NE(spans_csv.find("name,thread,start_ms,duration_ms"),
            std::string::npos);
  EXPECT_NE(spans_csv.find("s,1,"), std::string::npos);

  EXPECT_FALSE(write_metrics_csv("/nonexistent-dir/x.csv", snap));
}

TEST(ExportJson, DumpGlobalSnapshotIsValid) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  Registry::global().counter("obs_test.dump").add();
  const std::string path = testing::TempDir() + "obs_dump.json";
  ASSERT_TRUE(dump_global_metrics_json(path));
  const std::string json = read_file(path);
  EXPECT_NE(json.find("\"obs_test.dump\""), std::string::npos);
  EXPECT_FALSE(dump_global_metrics_json("/nonexistent-dir/x.json"));
}

TEST(Instrumentation, SolveFacadeFeedsPerSolverMetrics) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  core::RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = 2;
  p.system.cost_ms = {1.0, 1.0};
  p.system.delay_ms = {0.0, 0.0};
  p.system.init_load_ms = {0.0, 0.0};
  p.system.model = {"A", "A"};
  p.replicas = {{0, 1}, {0, 1}};
  p.validate();
  Histogram& solve_hist =
      Registry::global().histogram("solver.alg6.solve_ms");
  const std::uint64_t count_before = solve_hist.summary().count;
  core::solve(p, core::SolverKind::kPushRelabelBinary);
  EXPECT_EQ(solve_hist.summary().count, count_before + 1);
}

TEST(Instrumentation, EveryCatalogKindPublishesSolveMetrics) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  // metrics_for() is generated from REPFLOW_SOLVER_CATALOG, so every kind
  // — including ones added later — must land its solve in the
  // solver.<id>.solve_ms histogram, whose count is the kind's solve count.
  core::RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = 3;
  p.system.cost_ms = {1.0, 1.0, 1.0};
  p.system.delay_ms = {0.0, 0.0, 0.0};
  p.system.init_load_ms = {0.0, 0.0, 0.0};
  p.system.model = {"A", "A", "A"};
  p.replicas = {{0, 1}, {1, 2}, {2, 0}};
  p.validate();
  for (core::SolverKind kind : core::kAllSolverKinds) {
    const std::string prefix = std::string("solver.") + core::solver_id(kind);
    Histogram& hist = Registry::global().histogram(prefix + ".solve_ms");
    const std::uint64_t count_before = hist.summary().count;
    core::solve(p, kind, 2);
    EXPECT_EQ(hist.summary().count, count_before + 1)
        << core::solver_id(kind);
  }
}

TEST(Instrumentation, MatchingKernelPublishesPhaseTelemetry) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  // The greedy sends buckets 0 and 1 to disk 0, which has one slot under
  // the lower bound 1, so the seed leaves bucket 1 unassigned and the probe
  // at 1 needs a phase: 1 -> disk 0 -> 0 -> disk 1 -> 2 -> disk 2.
  core::RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = 3;
  p.system.cost_ms = {1.0, 1.0, 1.0};
  p.system.delay_ms = {0.0, 0.0, 0.0};
  p.system.init_load_ms = {0.0, 0.0, 0.0};
  p.system.model = {"A", "A", "A"};
  p.replicas = {{0, 1}, {0}, {1, 2}};
  p.validate();
  Counter& phases = Registry::global().counter("matching.phase_count");
  const std::uint64_t before = phases.value();
  core::solve(p, core::SolverKind::kIntegratedMatching);
  EXPECT_GT(phases.value(), before);
  const MetricsSnapshot snap = Registry::global().snapshot();
  EXPECT_TRUE(snap.histograms.contains("matching.augmenting_path_len"));
}

// The kernel folds its instruments once per solve, and the fold loses
// nothing: after k solves the path-length histogram holds one observation
// per augmentation and phase_count grew by the phases the solves report.
TEST(Instrumentation, MatchingFoldsOncePerSolve) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  Histogram& path_len =
      Registry::global().histogram("matching.augmenting_path_len");
  Counter& phases = Registry::global().counter("matching.phase_count");
  const std::uint64_t paths_before = path_len.summary().count;
  const std::uint64_t phases_before = phases.value();
  const std::int32_t n = 5;
  const auto rep =
      decluster::make_orthogonal(n, decluster::SiteMapping::kCopyPerSite);
  Rng rng(4242);
  core::IntegratedMatchingSolver solver;
  core::SolveResult result;
  std::uint64_t augmentations = 0;
  std::uint64_t phase_total = 0;
  for (int k = 0; k < 8; ++k) {
    workload::Query query;
    for (decluster::BucketId b = 0; b < n * n; ++b) {
      if (rng.below(2) == 0) query.push_back(b);
    }
    if (query.empty()) query.push_back(0);
    const core::RetrievalProblem problem = core::build_problem(
        rep, query, workload::make_experiment_system(5, n, rng));
    solver.solve_into(problem, result);
    augmentations += result.flow_stats.augmentations;
    phase_total += result.flow_stats.global_relabels;  // BFS phases
  }
  EXPECT_GT(augmentations, 0u);
  EXPECT_EQ(path_len.summary().count - paths_before, augmentations);
  EXPECT_EQ(phases.value() - phases_before, phase_total);
}

TEST(Instrumentation, ParallelEngineExportsPerThreadCounters) {
  if constexpr (!kEnabled) GTEST_SKIP() << "kill switch: nothing records";
  // The greedy puts buckets 0 and 1 on disk 0, which has one slot under the
  // lower bound 1: the seed leaves bucket 1 for the engine to route.
  core::RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = 4;
  p.system.cost_ms = {1.0, 1.0, 1.0, 1.0};
  p.system.delay_ms = {0.0, 0.0, 0.0, 0.0};
  p.system.init_load_ms = {0.0, 0.0, 0.0, 0.0};
  p.system.model = {"A", "A", "A", "A"};
  p.replicas = {{0, 1}, {0}, {1, 2}, {2, 3}};
  p.validate();
  Counter& discharges = Registry::global().counter("parallel.discharges");
  const std::uint64_t before = discharges.value();
  core::solve(p, core::SolverKind::kParallelPushRelabelBinary, 2);
  EXPECT_GT(discharges.value(), before);
  const MetricsSnapshot snap = Registry::global().snapshot();
  ASSERT_TRUE(snap.counters.contains("parallel.thread0.discharges"));
  ASSERT_TRUE(snap.counters.contains("parallel.thread1.discharges"));
  EXPECT_TRUE(snap.counters.contains("parallel.thread0.pushes"));
  EXPECT_TRUE(snap.gauges.contains("parallel.last_run_queue_yields"));
}

// Drives every guarded recording path once: each must leave its value at
// zero, and the registry must report nothing it registered.
TEST(Obs, DisabledBuildReportsNothing) {
  if constexpr (kEnabled) GTEST_SKIP() << "kill switch is on";
  Registry& registry = Registry::global();
  Counter& c = registry.counter("obs_test.noop");
  c.add(100);
  EXPECT_EQ(c.value(), 0u);
  Gauge& g = registry.gauge("obs_test.noop_gauge");
  g.set(2.5);
  EXPECT_EQ(g.value(), 0.0);
  Accumulator& a = registry.accumulator("obs_test.noop_busy_ms");
  a.add(4.0);
  EXPECT_EQ(a.value(), 0.0);

  Histogram& h = registry.histogram("obs_test.noop_ms");
  h.observe(1.0);
  HistogramTally tally;
  tally.observe(2.0);
  EXPECT_EQ(tally.count(), 0u);
  h.merge(tally);
  { ScopedLatency latency(h); }
  EXPECT_EQ(h.summary().count, 0u);
  for (int i = 0; i < Histogram::kBucketCount; ++i) {
    EXPECT_EQ(h.bucket_count(i), 0u) << "bucket " << i;
  }

  Tracer::global().set_enabled(true);
  EXPECT_FALSE(Tracer::global().enabled());
  { ScopedSpan span("obs_test.noop_span"); }
  EXPECT_TRUE(Tracer::global().spans().empty());

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.accumulations.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

}  // namespace
}  // namespace repflow::obs
