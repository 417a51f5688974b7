// Serving benchmark for the replicated-retrieval stack.  run.py builds it
// and forwards its arguments:
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload is a closed loop with one client that drives the stack
// from outside, through its public calls.  The seed makes the inputs;
// stream queries carry arrival instants on a deterministic virtual-time
// clock.
//
// The measurement runs in rounds.  A round constructs fresh serving objects
// and warms them on the first arrivals (the set-up, reported as setup_s),
// then submits the remaining arrivals back to back (the timed phase).
// Every round replays the same arrivals from virtual time zero, so all
// rounds solve identical problems and differ only by machine noise:
// each call's wall time is its fastest over the rounds, and model-time
// figures are exact for a seed.  Rounds repeat until --seconds have passed.
//
// Correctness: every schedule of the first round is checked against inputs
// rebuilt from the arrival log (feasibility, recomputed T, the X_j
// backlog), a deterministic sample is compared with core::ReferenceSolver,
// and every later round must reproduce the first bit for bit, work counts
// included where a public call returns them.  Failures are counted per
// query and make the process exit 1.
//
// --trace 1 alternates untraced and traced rounds to measure the tracing
// overhead, then replays the traced round's problems through the lower
// layers' public calls on separate warm instances, timing every call, and
// prints the per-layer metrics instead of the end-to-end ones.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/schedule_invariants.h"
#include "core/batch.h"
#include "core/execution.h"
#include "core/problem.h"
#include "core/reference.h"
#include "core/router.h"
#include "core/solver_pool.h"
#include "core/stream.h"
#include "decluster/schemes.h"
#include "support/rng.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace repflow;
using Clock = std::chrono::steady_clock;
using Replicas = std::vector<std::vector<core::DiskId>>;

// ---- Workload shapes ------------------------------------------------------

// stream_paper, overload_coalesce and batch_burst use the paper's Section VI
// inputs: two sites of N disks, an orthogonal c = 2 allocation of the N x N
// grid, Table IV Exp 5 disks (heterogeneous, with site delays) and Load-2
// range and arbitrary queries in equal parts.
constexpr std::int32_t kPaperN = 10;
// The two paper streams share one Exp 5 system drawn from this fixed seed;
// --seed draws the queries and the arrival jitter.  Exp 5 systems differ so
// much in speed that a system per seed would swamp the comparison of runs.
constexpr std::uint64_t kPaperSystemSeed = 2012;
// Mean gap between arrivals in virtual ms; each gap is uniform in
// [0.5, 1.5] times the mean.  On this mix the backlog stays bounded at a
// 16 ms gap and diverges at 12 ms, so the array sustains about one arrival
// per 14 ms.  stream_paper arrives at about 0.7 of that rate: over half of
// its queries meet a non-zero backlog, and the backlog stays bounded.
// overload_coalesce arrives at about four times that rate, and its router
// buffers arrivals while the backlog exceeds kCoalesceBacklogMs.
constexpr double kPaperGapMs = 20.0;
constexpr double kOverloadGapMs = 3.5;
constexpr double kCoalesceBacklogMs = 40.0;

// stream_dense: trace replay on one site of 64 disks.  Each bucket has 20
// replicas drawn with a cubed-uniform skew toward low disk ids, which are
// also the slow ones (hot-slow skew).  The replica degree is above the
// default policy's threshold of 16, so every query runs Algorithm 6.  The
// backlog stays bounded at a 2.5 ms gap and diverges at 2 ms; a 3 ms gap
// keeps about half of the queries behind a non-zero backlog.
constexpr std::int32_t kDenseDisks = 64;
constexpr std::size_t kDenseCopies = 20;
constexpr std::int64_t kDenseMinBuckets = 100;
constexpr std::int64_t kDenseMaxBuckets = 300;
constexpr double kDenseGapMs = 3.0;

// batch_burst: BatchSolver with 2 workers, leaving headroom on a 4-core
// host, over batches of independent Exp 5 problems with a system each.
constexpr int kBatchWorkers = 2;
constexpr std::size_t kBatchSize = 8;
constexpr std::size_t kBatchProblems = 4096;

/// One round's inputs: `pool` distinct queries (or batches) that the
/// arrivals cycle through, `warmup` untimed arrivals, then `timed` ones.
struct RoundShape {
  std::size_t pool;
  std::size_t warmup;
  std::size_t timed;
};
constexpr RoundShape kPaperShape{1024, 2000, 10000};
constexpr RoundShape kOverloadShape{1024, 10000, 60000};
constexpr RoundShape kDenseShape{512, 100, 3000};
// The warm-up solves every distinct batch once.
constexpr RoundShape kBatchShape{kBatchProblems / kBatchSize,
                                 kBatchProblems / kBatchSize, 1000};

constexpr std::size_t kMinRounds = 3;
// core::ReferenceSolver comparisons per run, spread over the first round.
constexpr std::size_t kReferenceSamples = 24;
// A p99 is reported only with at least ten samples beyond it.
constexpr std::size_t kMinP99Samples = 1000;
// Traced runs replay at most this many timed stream problems, or this many
// timed batches, through the lower layers.
constexpr std::size_t kReplayProblems = 4000;
constexpr std::size_t kReplayBatches = 250;

// ---- Helpers --------------------------------------------------------------

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// The p99 of `values`, refusing a sample without ten values beyond it.
double p99(const std::vector<double>& values, const std::string& what) {
  if (values.size() < kMinP99Samples) {
    throw std::runtime_error(what + ": a p99 needs " +
                             std::to_string(kMinP99Samples) +
                             " samples, the run has " +
                             std::to_string(values.size()));
  }
  return quantile(values, 0.99);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Report a failed check on stderr.  Only the first few are printed; the
/// count goes into the result.
void note_failure(const std::string& what) {
  static int printed = 0;
  if (printed++ < 8) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

/// Same optimum, schedule and work counts.
bool same_result(const core::SolveResult& a, const core::SolveResult& b) {
  const graph::FlowStats& x = a.flow_stats;
  const graph::FlowStats& y = b.flow_stats;
  return a.response_time_ms == b.response_time_ms &&
         a.schedule.assigned_disk == b.schedule.assigned_disk &&
         a.schedule.per_disk_count == b.schedule.per_disk_count &&
         a.capacity_steps == b.capacity_steps &&
         a.binary_probes == b.binary_probes &&
         a.maxflow_runs == b.maxflow_runs &&
         x.augmentations == y.augmentations && x.pushes == y.pushes &&
         x.relabels == y.relabels && x.global_relabels == y.global_relabels &&
         x.gap_jumps == y.gap_jumps && x.dfs_visits == y.dfs_visits;
}

bool same_event(const core::StreamEvent& a, const core::StreamEvent& b) {
  return a.arrival_ms == b.arrival_ms && a.response_ms == b.response_ms &&
         a.max_initial_load_ms == b.max_initial_load_ms &&
         a.buckets == b.buckets &&
         a.schedule.assigned_disk == b.schedule.assigned_disk &&
         a.schedule.per_disk_count == b.schedule.per_disk_count;
}

double max_initial_load(const core::RetrievalProblem& problem) {
  double backlog = 0.0;
  for (const double x : problem.system.init_load_ms) {
    backlog = std::max(backlog, x);
  }
  return backlog;
}

double replica_arcs(const core::RetrievalProblem& problem) {
  double arcs = 0.0;
  for (const auto& disks : problem.replicas) {
    arcs += static_cast<double>(disks.size());
  }
  return arcs;
}

/// Whether two solvers' optimal response times agree.  Different searches
/// may stop on optimal schedules whose bottleneck completions differ in the
/// last bits (X_j is a difference of busy horizons), so this compares to
/// 1e-9 relative.
bool same_optimum(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(a));
}

/// Schedule feasibility and the recomputed T and, with `reference`, the
/// optimum of core::ReferenceSolver.
bool verify_schedule(const core::RetrievalProblem& problem,
                     const core::Schedule& schedule, double response_ms,
                     bool reference) {
  analysis::InvariantReport report =
      analysis::check_schedule_feasibility(problem, schedule);
  report.merge(analysis::check_response_time(problem, schedule, response_ms));
  if (report.ok() && reference) {
    const double optimum =
        core::ReferenceSolver(problem).solve().response_time_ms;
    if (!same_optimum(optimum, response_ms)) {
      report.fail("T " + std::to_string(response_ms) +
                  " ms is not the reference optimum " +
                  std::to_string(optimum) + " ms");
    }
  }
  if (!report.ok()) note_failure(report.to_string());
  return report.ok();
}

// ---- Results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;  // the JSON line
  // Printed only: layers that do not run on every workload.
  std::vector<Metric> notes;

  void add(const char* name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
};

/// The workload's shape as served, for the description line.
struct Description {
  double mean_buckets = 0.0;
  double mean_degree = 0.0;
  double matching_share = 0.0;
  double merged_share = 0.0;
  double backlog_mean_ms = 0.0;
  double backlog_max_ms = 0.0;
  double backlog_nonzero_share = 0.0;
};

/// Wall-clock figures of one kind of round (untraced or traced).
///
/// Other tenants of a shared host slow the machine down, never speed it up,
/// and a slow spell can last a whole run: one client thread has served the
/// same inputs at about 21 000 and about 34 000 queries per second within a
/// minute.  Every round makes the same calls in the same order, so each
/// call's time is kept as its fastest over the rounds, which needs a moment
/// at full speed per call rather than a whole round.  Latency quantiles and
/// throughput come from these per-call times; setup_s is the fastest
/// round's set-up.
struct RoundFigures {
  std::size_t served = 0;            // queries per round
  std::vector<double> best_call_us;  // per call, its fastest round's time
  std::vector<double> setup_s;       // per round

  void add(std::size_t served_per_round, const std::vector<double>& call_us,
           double setup) {
    if (setup_s.empty()) {
      served = served_per_round;
      best_call_us = call_us;
    }
    for (std::size_t i = 0; i < call_us.size(); ++i) {
      best_call_us[i] = std::min(best_call_us[i], call_us[i]);
    }
    setup_s.push_back(setup);
  }

  std::size_t rounds() const { return setup_s.size(); }

  double qps() const {
    double busy_us = 0.0;
    for (const double us : best_call_us) busy_us += us;
    return static_cast<double>(served) * 1e6 / busy_us;
  }
};

bool rounds_done(bool trace, const RoundFigures& untraced,
                 const RoundFigures& traced, double elapsed_s,
                 double seconds) {
  if (!trace) {
    return untraced.rounds() >= kMinRounds && elapsed_s >= seconds;
  }
  // A traced run spends half its time on rounds, the rest on the replay.
  return untraced.rounds() >= 2 && traced.rounds() >= 2 &&
         elapsed_s >= seconds / 2.0;
}

double trace_overhead_pct(const RoundFigures& untraced,
                          const RoundFigures& traced) {
  return 100.0 * (1.0 - traced.qps() / untraced.qps());
}

void add_end_to_end(Result& res, const RoundFigures& f,
                    const std::vector<double>& response_ms) {
  res.add("throughput_qps", f.qps(), "1/s");
  res.add("latency_p50_ms", quantile(f.best_call_us, 0.5) / 1000.0, "ms");
  res.add("latency_p99_ms", p99(f.best_call_us, "call latency") / 1000.0,
          "ms");
  res.add("resp_mean_model_ms", mean(response_ms), "ms");
  res.add("resp_p99_model_ms", p99(response_ms, "model response"), "ms");
  res.add("setup_s", quantile(f.setup_s, 0.0), "s");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
  res.add("served_frac",
          1.0 - ratio(static_cast<double>(res.failed),
                      static_cast<double>(res.attempted)),
          "ratio");
}

void print_description(const std::string& workload, std::size_t rounds,
                       const Result& res, const Description& d) {
  std::printf(
      "workload: %s rounds=%zu queries_served=%lld mean_Q=%.2f "
      "mean_replica_degree=%.3f matching_share=%.4f merged_share=%.4f "
      "backlog_mean_model_ms=%.3f backlog_max_model_ms=%.3f "
      "backlog_nonzero_share=%.4f\n",
      workload.c_str(), rounds,
      static_cast<long long>(res.attempted - res.failed), d.mean_buckets,
      d.mean_degree, d.matching_share, d.merged_share, d.backlog_mean_ms,
      d.backlog_max_ms, d.backlog_nonzero_share);
}

// ---- Lower-layer replay ---------------------------------------------------

constexpr core::SolverKind kKernels[2] = {
    core::SolverKind::kIntegratedMatching,
    core::SolverKind::kPushRelabelBinary};

/// Replays problems through the lower layers' public calls on warm
/// instances of its own -- ExecutionContext::select, ExecutionContext and
/// SolverPool::solve_into with the selected kind, then SolverPool with the
/// other kernel -- and times every call.
class LayerReplay {
 public:
  enum class Record { kNothing, kTimes, kTimesAndWork };

  explicit LayerReplay(const core::ExecutionPolicy& policy)
      : context_(policy), pool_(policy.threads) {}

  /// False when a kernel misses `expected_ms`, or the context and the pool
  /// did different work on the same problem.
  bool replay(const core::RetrievalProblem& problem, double expected_ms,
              Record record) {
    const auto t0 = Clock::now();
    const core::SolverKind kind = context_.select(problem);
    const auto t1 = Clock::now();
    context_.solve_into(problem, kind, via_context_);
    const auto t2 = Clock::now();
    pool_.solve_into(problem, kind, via_pool_);
    const auto t3 = Clock::now();
    double kernel_us[2] = {0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
      if (kKernels[i] == kind) {
        kernel_us[i] = us_between(t2, t3);
        continue;
      }
      const auto k0 = Clock::now();
      pool_.solve_into(problem, kKernels[i], kernel_[i]);
      kernel_us[i] = us_between(k0, Clock::now());
    }
    const auto result_of = [&](int i) -> const core::SolveResult& {
      return kKernels[i] == kind ? via_pool_ : kernel_[i];
    };
    const bool ok =
        via_context_.response_time_ms == expected_ms &&
        same_result(via_context_, via_pool_) &&
        same_optimum(result_of(0).response_time_ms, expected_ms) &&
        same_optimum(result_of(1).response_time_ms, expected_ms);
    if (!ok) {
      note_failure("replay: a lower layer disagrees with the served T " +
                   std::to_string(expected_ms) + " ms");
    }
    if (record == Record::kNothing) return ok;

    const double exec_us = us_between(t1, t2);
    select_us.push_back(us_between(t0, t1));
    context_us.push_back(exec_us);
    fold_us.push_back(exec_us - us_between(t2, t3));
    for (int i = 0; i < 2; ++i) solve_us[i].push_back(kernel_us[i]);
    if (record == Record::kTimesAndWork) {
      problems += 1.0;
      if (kind == core::SolverKind::kIntegratedMatching) {
        matching_selects += 1.0;
      }
      probes += static_cast<double>(via_context_.binary_probes);
      steps += static_cast<double>(via_context_.capacity_steps);
      const graph::FlowStats& flow = result_of(1).flow_stats;
      pushes += static_cast<double>(flow.pushes);
      relabels += static_cast<double>(flow.relabels);
      global_relabels += static_cast<double>(flow.global_relabels);
      const graph::FlowStats& matching = result_of(0).flow_stats;
      visits += static_cast<double>(matching.dfs_visits);
      augmentations += static_cast<double>(matching.augmentations);
    }
    return ok;
  }

  std::size_t kernel_samples() const { return solve_us[0].size(); }
  std::size_t retained_bytes() const { return context_.retained_bytes(); }

  std::vector<double> select_us, context_us, fold_us;
  std::vector<double> solve_us[2];  // per kKernels entry
  // Work of the timed problems (Record::kTimesAndWork only).
  double problems = 0.0, matching_selects = 0.0, probes = 0.0, steps = 0.0;
  double pushes = 0.0, relabels = 0.0, global_relabels = 0.0;
  double visits = 0.0, augmentations = 0.0;

 private:
  core::ExecutionContext context_;
  core::SolverPool pool_;
  core::SolveResult via_context_, via_pool_;
  core::SolveResult kernel_[2];
};

/// The per-layer metrics every workload reports (a traced run's JSON line).
void add_layer_metrics(Result& res, const LayerReplay& l, double backlog_ms,
                       const std::vector<double>& build_us,
                       double dedup_ratio, double merged_per_flush,
                       double batch_efficiency, double overhead_pct) {
  const double n = l.problems;
  res.add("stream.backlog_mean_model_ms", backlog_ms, "ms");
  res.add("problem.build_p50_us", quantile(build_us, 0.5), "us");
  res.add("policy.select_p50_us", quantile(l.select_us, 0.5), "us");
  res.add("policy.matching_share", ratio(l.matching_selects, n), "ratio");
  res.add("exec.fold_p50_us", quantile(l.fold_us, 0.5), "us");
  res.add("solve.matching.p50_us", quantile(l.solve_us[0], 0.5), "us");
  res.add("solve.matching.p99_us", p99(l.solve_us[0], "solve.matching"),
          "us");
  res.add("solve.alg6.p50_us", quantile(l.solve_us[1], 0.5), "us");
  res.add("solve.alg6.p99_us", p99(l.solve_us[1], "solve.alg6"), "us");
  res.add("solve.probes_per_query", ratio(l.probes, n), "count");
  res.add("solve.steps_per_query", ratio(l.steps, n), "count");
  res.add("graph.pushes_per_query", ratio(l.pushes, n), "count");
  res.add("graph.relabels_per_query", ratio(l.relabels, n), "count");
  res.add("graph.global_relabels_per_query", ratio(l.global_relabels, n),
          "count");
  res.add("matching.visits_per_query", ratio(l.visits, n), "count");
  res.add("matching.augmentations_per_query", ratio(l.augmentations, n),
          "count");
  res.add("router.dedup_ratio", dedup_ratio, "ratio");
  res.add("router.merged_per_flush", merged_per_flush, "count");
  res.add("batch.efficiency", batch_efficiency, "ratio");
  res.add("pool.retained_kb", static_cast<double>(l.retained_bytes()) / 1024.0,
          "KiB");
  res.add("trace.overhead_pct", overhead_pct, "%");
}

// ---- Stream workloads -----------------------------------------------------

struct StreamWorkload {
  // Empty in trace-replay mode (stream_dense).
  std::optional<decluster::ReplicatedAllocation> allocation;
  workload::SystemConfig system;
  std::vector<workload::Query> queries;  // allocation mode: the query pool
  std::vector<Replicas> replica_pool;    // trace replay: the replica lists
  std::vector<double> arrival_ms;        // the warm-up arrivals come first
  std::size_t warmup = 0;
  core::RouterOptions router;

  std::size_t timed() const { return arrival_ms.size() - warmup; }
  const workload::Query& query(std::size_t a) const {
    return queries[a % queries.size()];
  }
  const Replicas& replicas(std::size_t a) const {
    return replica_pool[a % replica_pool.size()];
  }
  std::size_t query_size(std::size_t a) const {
    return allocation ? query(a).size() : replicas(a).size();
  }
};

std::vector<workload::Query> paper_queries(Rng& rng, std::size_t count) {
  const workload::QueryGenerator range(kPaperN, workload::QueryType::kRange,
                                       workload::LoadKind::kLoad2);
  const workload::QueryGenerator arbitrary(
      kPaperN, workload::QueryType::kArbitrary, workload::LoadKind::kLoad2);
  std::vector<workload::Query> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back((rng.chance(0.5) ? range : arbitrary).next(rng));
  }
  return queries;
}

std::vector<double> arrival_clock(Rng& rng, std::size_t count,
                                  double mean_gap_ms) {
  std::vector<double> arrivals;
  arrivals.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    arrivals.push_back(t);
    t += mean_gap_ms * rng.uniform(0.5, 1.5);
  }
  return arrivals;
}

Replicas dense_replicas(Rng& rng) {
  Replicas lists(static_cast<std::size_t>(
      rng.range(kDenseMinBuckets, kDenseMaxBuckets)));
  for (auto& disks : lists) {
    while (disks.size() < kDenseCopies) {
      const double u = rng.uniform01();
      const auto disk = static_cast<core::DiskId>(kDenseDisks * u * u * u);
      if (std::find(disks.begin(), disks.end(), disk) == disks.end()) {
        disks.push_back(disk);
      }
    }
  }
  return lists;
}

StreamWorkload make_stream_workload(const std::string& name,
                                    std::uint64_t seed) {
  StreamWorkload w;
  Rng rng(seed);
  if (name == "stream_dense") {
    w.system.num_sites = 1;
    w.system.disks_per_site = kDenseDisks;
    for (std::int32_t d = 0; d < kDenseDisks; ++d) {
      w.system.cost_ms.push_back(d < kDenseDisks / 4   ? 2.0
                                 : d < kDenseDisks / 2 ? 1.0
                                                       : 0.5);
      w.system.delay_ms.push_back(0.0);
      w.system.init_load_ms.push_back(0.0);
      w.system.model.push_back("dense");
    }
    for (std::size_t i = 0; i < kDenseShape.pool; ++i) {
      w.replica_pool.push_back(dense_replicas(rng));
    }
    w.warmup = kDenseShape.warmup;
    w.arrival_ms = arrival_clock(rng, kDenseShape.warmup + kDenseShape.timed,
                                 kDenseGapMs);
    return w;
  }
  const bool overload = name == "overload_coalesce";
  const RoundShape shape = overload ? kOverloadShape : kPaperShape;
  w.allocation.emplace(decluster::make_orthogonal(
      kPaperN, decluster::SiteMapping::kCopyPerSite));
  Rng system_rng(kPaperSystemSeed);
  w.system = workload::make_experiment_system(5, kPaperN, system_rng);
  w.queries = paper_queries(rng, shape.pool);
  w.warmup = shape.warmup;
  w.arrival_ms = arrival_clock(rng, shape.warmup + shape.timed,
                               overload ? kOverloadGapMs : kPaperGapMs);
  if (overload) {
    w.router.mode = core::AdmissionMode::kCoalesce;
    w.router.max_backlog_ms = kCoalesceBacklogMs;
  }
  return w;
}

/// What the router did with one arrival; empty when the call threw.
using Decision = std::optional<core::RouterDecision>;

/// One round: its serving objects and the record of its calls.
struct StreamRound {
  std::unique_ptr<core::QueryStreamScheduler> scheduler;
  std::unique_ptr<core::QueryRouter> router;
  double setup_s = 0.0;
  std::vector<double> call_us;  // timed calls; the end-of-stream flush last
  std::vector<double> span_start_us;  // traced rounds: when each call began
  std::vector<Decision> decisions;    // every arrival, warm-up included
  bool final_flush = false;  // the end-of-stream flush submitted a batch
};

/// A scheduler under the default ExecutionPolicy (the adaptive
/// degree-threshold rule), as the serving path uses.
std::unique_ptr<core::QueryStreamScheduler> make_scheduler(
    const StreamWorkload& w) {
  if (w.allocation) {
    return std::make_unique<core::QueryStreamScheduler>(
        *w.allocation, w.system, core::ExecutionPolicy{});
  }
  return std::make_unique<core::QueryStreamScheduler>(
      w.system, core::ExecutionPolicy{});
}

/// Route arrival `a`; returns the call's wall time in microseconds.
double route(const StreamWorkload& w, StreamRound& r, std::size_t a) {
  Replicas staged;
  if (!w.allocation) staged = w.replicas(a);  // the request, built untimed
  const double at = w.arrival_ms[a];
  Decision decision;
  const auto start = Clock::now();
  try {
    decision =
        (w.allocation ? r.router->submit(w.query(a), at)
                      : r.router->submit_replicas(std::move(staged), at))
            .decision;
  } catch (const std::exception& e) {
    note_failure("arrival " + std::to_string(a) + ": " + e.what());
  }
  const double us = us_between(start, Clock::now());
  r.decisions[a] = decision;
  return us;
}

StreamRound run_stream_round(const StreamWorkload& w, bool traced) {
  StreamRound r;
  r.decisions.assign(w.arrival_ms.size(), std::nullopt);
  r.call_us.reserve(w.timed() + 1);
  if (traced) r.span_start_us.reserve(w.timed() + 1);

  const auto setup_start = Clock::now();
  r.scheduler = make_scheduler(w);
  r.router = std::make_unique<core::QueryRouter>(*r.scheduler, w.router);
  for (std::size_t a = 0; a < w.warmup; ++a) route(w, r, a);
  r.setup_s = seconds_since(setup_start);

  const auto timed_start = Clock::now();
  const auto open_span = [&] {
    if (traced) {
      r.span_start_us.push_back(us_between(timed_start, Clock::now()));
    }
  };
  for (std::size_t a = w.warmup; a < w.arrival_ms.size(); ++a) {
    open_span();
    r.call_us.push_back(route(w, r, a));
  }
  // End of stream: drain the merge buffer (a no-op unless coalescing).
  open_span();
  const auto start = Clock::now();
  try {
    r.final_flush = r.router->flush(w.arrival_ms.back()).has_value();
  } catch (const std::exception& e) {
    note_failure(std::string("end-of-stream flush: ") + e.what());
  }
  r.call_us.push_back(us_between(start, Clock::now()));
  return r;
}

/// Which arrivals each scheduler event served, in event order.
struct EventGroups {
  std::vector<std::vector<std::size_t>> members;  // in buffer order
  std::vector<double> at_ms;                      // submission instant
  std::vector<bool> flushed;  // a batch that went through the merge buffer
};

EventGroups group_events(const StreamWorkload& w, const StreamRound& r) {
  EventGroups g;
  const auto close = [&](std::vector<std::size_t> members, double at,
                         bool flushed) {
    g.members.push_back(std::move(members));
    g.at_ms.push_back(at);
    g.flushed.push_back(flushed);
  };
  std::vector<std::size_t> pending;
  for (std::size_t a = 0; a < r.decisions.size(); ++a) {
    if (!r.decisions[a]) continue;  // threw: unserved
    switch (*r.decisions[a]) {
      case core::RouterDecision::kAdmitted:
        close({a}, w.arrival_ms[a], false);
        break;
      case core::RouterDecision::kCoalesced:
        pending.push_back(a);
        break;
      case core::RouterDecision::kFlushed:
        pending.push_back(a);
        close(std::move(pending), w.arrival_ms[a], true);
        pending.clear();
        break;
      case core::RouterDecision::kShed:
        break;  // unserved
    }
  }
  if (r.final_flush) close(std::move(pending), w.arrival_ms.back(), true);
  return g;
}

/// Rebuilds, event by event, the problem the scheduler solved: the member
/// arrivals' replica lists, merged as the router merges them (the bucket
/// union in first-appearance order; plain concatenation without bucket
/// ids), and the X_j backlog the earlier events left, by the scheduler's
/// rule X_j = max(0, busy_until_j - arrival).
class ProblemRebuilder {
 public:
  explicit ProblemRebuilder(const StreamWorkload& w)
      : w_(w),
        busy_until_(static_cast<std::size_t>(w.system.total_disks()), 0.0) {}

  workload::SystemConfig system_at(double at_ms) const {
    workload::SystemConfig system = w_.system;
    for (std::size_t d = 0; d < busy_until_.size(); ++d) {
      system.init_load_ms[d] = std::max(0.0, busy_until_[d] - at_ms);
    }
    return system;
  }

  workload::Query merged_query(const std::vector<std::size_t>& members) const {
    if (members.size() == 1) return w_.query(members.front());
    std::unordered_set<decluster::BucketId> seen;
    workload::Query merged;
    for (const std::size_t a : members) {
      for (const decluster::BucketId b : w_.query(a)) {
        if (seen.insert(b).second) merged.push_back(b);
      }
    }
    return merged;
  }

  Replicas merged_replicas(const std::vector<std::size_t>& members) const {
    if (w_.allocation) {
      return core::replica_lists(*w_.allocation, merged_query(members));
    }
    Replicas merged;
    for (const std::size_t a : members) {
      const Replicas& lists = w_.replicas(a);
      merged.insert(merged.end(), lists.begin(), lists.end());
    }
    return merged;
  }

  core::RetrievalProblem problem(const std::vector<std::size_t>& members,
                                 double at_ms) const {
    core::RetrievalProblem p;
    p.replicas = merged_replicas(members);
    p.system = system_at(at_ms);
    p.validate();
    return p;
  }

  /// Advance the busy horizon by a schedule's work, as the scheduler does.
  void commit(const core::RetrievalProblem& p, const core::Schedule& s,
              double at_ms) {
    const std::size_t disks =
        std::min(busy_until_.size(), s.per_disk_count.size());
    for (std::size_t d = 0; d < disks; ++d) {
      const std::int64_t k = s.per_disk_count[d];
      if (k > 0) {
        busy_until_[d] =
            at_ms + p.completion_time(static_cast<core::DiskId>(d), k);
      }
    }
  }

 private:
  const StreamWorkload& w_;
  std::vector<double> busy_until_;
};

/// The first round's verification, plus what the description and the
/// model-time metrics need.
struct StreamCheck {
  std::int64_t failed = 0;          // timed arrivals not served correctly
  std::vector<double> response_ms;  // model response per timed arrival
  double offered_buckets = 0.0;     // buckets offered to the merge buffer
  Description shape;
};

StreamCheck check_stream_round(const StreamWorkload& w, const StreamRound& r,
                               const EventGroups& g) {
  StreamCheck c;
  const std::vector<core::StreamEvent>& events = r.scheduler->events();
  std::vector<char> ok(w.arrival_ms.size(), 0);
  std::vector<double> response(w.arrival_ms.size(), 0.0);
  double timed_events = 0.0, buckets = 0.0, arcs = 0.0, matching = 0.0;
  double backlog = 0.0, nonzero = 0.0;
  if (events.size() != g.members.size()) {
    note_failure("the scheduler logged " + std::to_string(events.size()) +
                 " events for " + std::to_string(g.members.size()) +
                 " submissions");
  } else {
    for (const auto& members : g.members) {
      timed_events += members.back() >= w.warmup ? 1.0 : 0.0;
    }
    const auto stride = std::max<std::size_t>(
        1, static_cast<std::size_t>(timed_events) / kReferenceSamples);
    ProblemRebuilder rebuild(w);
    core::ExecutionContext selector;  // the serving path's default policy
    std::size_t timed_index = 0;
    double deduped = 0.0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const core::StreamEvent& e = events[i];
      const std::vector<std::size_t>& members = g.members[i];
      const double at = g.at_ms[i];
      const core::RetrievalProblem problem = rebuild.problem(members, at);
      bool good = e.arrival_ms == at && e.buckets == problem.query_size() &&
                  e.max_initial_load_ms == max_initial_load(problem);
      if (!good) {
        note_failure("event " + std::to_string(i) +
                     ": arrival, size or backlog differs from the inputs");
      }
      const bool timed = members.back() >= w.warmup;
      const bool sampled = timed && timed_index++ % stride == 0;
      good = verify_schedule(problem, e.schedule, e.response_ms, sampled) &&
             good;
      rebuild.commit(problem, e.schedule, at);
      if (g.flushed[i]) {
        double offered = 0.0;
        for (const std::size_t a : members) {
          offered += static_cast<double>(w.query_size(a));
        }
        c.offered_buckets += offered;
        deduped += offered - static_cast<double>(problem.query_size());
      }
      for (const std::size_t a : members) {
        ok[a] = good;
        // A coalesced query also waits in the buffer until the flush.
        response[a] = (at - w.arrival_ms[a]) + e.response_ms;
      }
      if (!timed) continue;
      buckets += static_cast<double>(problem.query_size());
      arcs += replica_arcs(problem);
      if (selector.select(problem) == core::SolverKind::kIntegratedMatching) {
        matching += 1.0;
      }
      backlog += e.max_initial_load_ms;
      c.shape.backlog_max_ms =
          std::max(c.shape.backlog_max_ms, e.max_initial_load_ms);
      if (e.max_initial_load_ms > 0.0) nonzero += 1.0;
    }
    if (w.allocation &&
        deduped != static_cast<double>(r.router->stats().dedup_hits)) {
      note_failure("the router's dedup hits differ from the merged problems");
      std::fill(ok.begin(), ok.end(), 0);
    }
  }
  double query_buckets = 0.0, merged = 0.0;
  for (std::size_t a = w.warmup; a < w.arrival_ms.size(); ++a) {
    query_buckets += static_cast<double>(w.query_size(a));
    if (r.decisions[a] == core::RouterDecision::kCoalesced ||
        r.decisions[a] == core::RouterDecision::kFlushed) {
      merged += 1.0;
    }
    if (ok[a]) {
      c.response_ms.push_back(response[a]);
    } else {
      ++c.failed;
    }
  }
  const auto timed = static_cast<double>(w.timed());
  c.shape.mean_buckets = query_buckets / timed;
  c.shape.mean_degree = ratio(arcs, buckets);
  c.shape.matching_share = ratio(matching, timed_events);
  c.shape.merged_share = merged / timed;
  c.shape.backlog_mean_ms = ratio(backlog, timed_events);
  c.shape.backlog_nonzero_share = ratio(nonzero, timed_events);
  return c;
}

/// Timed arrivals that failed in round `r`: those the first round failed,
/// plus those whose events differ from the first round's.
std::int64_t count_round_failures(const StreamWorkload& w,
                                  const StreamRound& first,
                                  const EventGroups& g,
                                  const StreamCheck& check,
                                  const StreamRound& r) {
  const std::vector<core::StreamEvent>& expected = first.scheduler->events();
  const std::vector<core::StreamEvent>& got = r.scheduler->events();
  const auto timed = static_cast<std::int64_t>(w.timed());
  if (r.decisions != first.decisions || r.final_flush != first.final_flush ||
      got.size() != expected.size()) {
    note_failure("a round's router decisions differ from the first round's");
    return timed;
  }
  std::int64_t failed = check.failed;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (same_event(got[i], expected[i])) continue;
    note_failure("event " + std::to_string(i) +
                 " differs from the first round's");
    for (const std::size_t a : g.members[i]) failed += a >= w.warmup ? 1 : 0;
  }
  return std::min(failed, timed);
}

/// Per-layer metrics of a stream workload, from its last traced round.
void replay_stream(const StreamWorkload& w, const StreamRound& traced,
                   const EventGroups& g, const StreamCheck& check,
                   double overhead_pct, Result& res) {
  const std::vector<core::StreamEvent>& events = traced.scheduler->events();
  // The router layer: the arrivals routed again through a router and
  // scheduler of their own.  The stream layer alone: the submissions those
  // calls make, sent straight to a second scheduler.  A router call's self
  // time is its span minus the direct submission it caused, if any.
  StreamRound shadow;
  shadow.scheduler = make_scheduler(w);
  shadow.router = std::make_unique<core::QueryRouter>(*shadow.scheduler,
                                                      w.router);
  shadow.decisions.assign(w.arrival_ms.size(), std::nullopt);
  const std::unique_ptr<core::QueryStreamScheduler> direct = make_scheduler(w);
  ProblemRebuilder rebuild(w);
  LayerReplay layers(core::ExecutionPolicy{});
  std::vector<double> router_self_us, stream_self_us, build_us, flush_ms;
  std::vector<core::RetrievalProblem> problems;  // the replayed timed ones
  std::vector<double> problem_response_ms;
  double backlog = 0.0;
  std::int64_t failed = 0;
  for (std::size_t i = 0;
       i < events.size() && problems.size() < kReplayProblems; ++i) {
    const std::vector<std::size_t>& members = g.members[i];
    const double at = g.at_ms[i];
    const bool timed = members.back() >= w.warmup;
    const core::StreamEvent& served = events[i];

    // Router layer.  A group's members are consecutive arrivals; the last
    // one (or the end-of-stream flush) makes the submission.
    const bool final_batch = traced.final_flush && i + 1 == events.size();
    double trigger_us = 0.0;
    for (const std::size_t a : members) {
      const double span = route(w, shadow, a);
      if (a == members.back() && !final_batch) {
        trigger_us = span;
      } else if (a >= w.warmup) {
        router_self_us.push_back(span);  // buffered only: no child
      }
      if (timed && shadow.decisions[a] == core::RouterDecision::kFlushed) {
        flush_ms.push_back(span / 1000.0);
      }
    }
    if (final_batch) {
      const auto f0 = Clock::now();
      shadow.router->flush(at);
      trigger_us = us_between(f0, Clock::now());
      if (timed) flush_ms.push_back(trigger_us / 1000.0);
    }

    // Stream layer: a plain admission goes straight in by query.
    const bool by_query = w.allocation && !g.flushed[i];
    Replicas staged;
    if (!by_query) staged = rebuild.merged_replicas(members);
    const auto s0 = Clock::now();
    const core::StreamEvent event =
        by_query ? direct->submit(w.query(members.front()), at)
                 : direct->submit_replicas(std::move(staged), at);
    const double stream_us = us_between(s0, Clock::now());
    bool good = same_event(event, served) &&
                shadow.scheduler->events().size() == i + 1 &&
                same_event(shadow.scheduler->events().back(), served);
    if (!good) {
      note_failure("event " + std::to_string(i) +
                   " differs when routed again or sent straight in");
    }

    // Problem layer.
    const workload::SystemConfig system = rebuild.system_at(at);
    workload::Query query;
    Replicas lists;
    if (w.allocation) {
      query = rebuild.merged_query(members);
    } else {
      lists = rebuild.merged_replicas(members);
    }
    core::RetrievalProblem problem;
    const auto b0 = Clock::now();
    if (w.allocation) {
      problem = core::build_problem(*w.allocation, query, system);
    } else {
      problem.replicas = std::move(lists);
      problem.system = system;
      problem.validate();
    }
    const double build = us_between(b0, Clock::now());

    // Execution layer and kernels.
    good = layers.replay(problem, served.response_ms,
                         timed ? LayerReplay::Record::kTimesAndWork
                               : LayerReplay::Record::kNothing) &&
           good;
    rebuild.commit(problem, served.schedule, at);
    if (!good) {
      for (const std::size_t a : members) failed += a >= w.warmup ? 1 : 0;
    }
    if (!timed) continue;
    router_self_us.push_back(trigger_us - stream_us);
    stream_self_us.push_back(stream_us - event.solve_ms * 1000.0);
    build_us.push_back(build);
    backlog += served.max_initial_load_ms;
    problems.push_back(std::move(problem));
    problem_response_ms.push_back(served.response_ms);
  }
  // Further passes over the replayed problems until the kernel p99s rest on
  // enough samples.
  while (!problems.empty() && layers.kernel_samples() < kMinP99Samples) {
    for (std::size_t k = 0; k < problems.size(); ++k) {
      if (!layers.replay(problems[k], problem_response_ms[k],
                         LayerReplay::Record::kTimes)) {
        ++failed;
      }
    }
  }
  res.failed = std::min(res.failed + failed, res.attempted);

  const core::RouterStats& stats = traced.router->stats();
  add_layer_metrics(res, layers, ratio(backlog, layers.problems), build_us,
                    ratio(static_cast<double>(stats.dedup_hits),
                          check.offered_buckets),
                    ratio(static_cast<double>(stats.coalesced),
                          static_cast<double>(stats.flushes)),
                    0.0, overhead_pct);
  res.notes.push_back(
      {"router.self_p50_us", quantile(router_self_us, 0.5), "us"});
  res.notes.push_back(
      {"stream.self_p50_us", quantile(stream_self_us, 0.5), "us"});
  if (!flush_ms.empty()) {
    res.notes.push_back({"router.flush_p50_ms", quantile(flush_ms, 0.5), "ms"});
  }
}

Result run_stream(const std::string& workload, std::uint64_t seed,
                  double seconds, bool trace) {
  const StreamWorkload w = make_stream_workload(workload, seed);
  Result res;
  RoundFigures untraced, traced;
  const auto start = Clock::now();
  const StreamRound first = run_stream_round(w, false);
  const EventGroups groups = group_events(w, first);
  const StreamCheck check = check_stream_round(w, first, groups);
  untraced.add(w.timed(), first.call_us, first.setup_s);
  res.attempted += static_cast<std::int64_t>(w.timed());
  res.failed += check.failed;
  std::optional<StreamRound> last_traced;
  std::size_t rounds = 1;
  for (; !rounds_done(trace, untraced, traced, seconds_since(start), seconds);
       ++rounds) {
    const bool trace_round = trace && rounds % 2 == 1;
    StreamRound r = run_stream_round(w, trace_round);
    res.attempted += static_cast<std::int64_t>(w.timed());
    res.failed += count_round_failures(w, first, groups, check, r);
    (trace_round ? traced : untraced)
        .add(w.timed(), r.call_us, r.setup_s);
    if (trace_round) last_traced = std::move(r);
  }
  if (trace) {
    replay_stream(w, *last_traced, groups, check,
                  trace_overhead_pct(untraced, traced), res);
  } else {
    add_end_to_end(res, untraced, check.response_ms);
  }
  print_description(workload, rounds, res, check.shape);
  return res;
}

// ---- batch_burst ----------------------------------------------------------

struct BatchWorkload {
  std::optional<decluster::ReplicatedAllocation> allocation;
  std::vector<workload::Query> queries;         // per problem
  std::vector<workload::SystemConfig> systems;  // per problem
  // The distinct batches: problem p is batches[p / kBatchSize][p % kBatchSize].
  std::vector<std::vector<core::RetrievalProblem>> batches;
};

BatchWorkload make_batch_workload(std::uint64_t seed) {
  BatchWorkload w;
  w.allocation.emplace(decluster::make_orthogonal(
      kPaperN, decluster::SiteMapping::kCopyPerSite));
  Rng rng(seed);
  w.queries = paper_queries(rng, kBatchProblems);
  w.batches.resize(kBatchShape.pool);
  for (std::size_t p = 0; p < kBatchProblems; ++p) {
    w.systems.push_back(workload::make_experiment_system(5, kPaperN, rng));
    w.batches[p / kBatchSize].push_back(
        core::build_problem(*w.allocation, w.queries[p], w.systems[p]));
  }
  return w;
}

/// The batch path's policy: Algorithm 6 pinned, one thread per solve.
core::ExecutionPolicy batch_policy() {
  return core::ExecutionPolicy::pinned(core::SolverKind::kPushRelabelBinary,
                                       1);
}

Description describe_batch(const BatchWorkload& w) {
  Description d;
  core::ExecutionContext selector(batch_policy());
  double buckets = 0.0, arcs = 0.0, matching = 0.0, backlog = 0.0;
  double nonzero = 0.0;
  for (const auto& batch : w.batches) {
    for (const core::RetrievalProblem& p : batch) {
      buckets += static_cast<double>(p.query_size());
      arcs += replica_arcs(p);
      if (selector.select(p) == core::SolverKind::kIntegratedMatching) {
        matching += 1.0;
      }
      const double x = max_initial_load(p);
      backlog += x;
      d.backlog_max_ms = std::max(d.backlog_max_ms, x);
      if (x > 0.0) nonzero += 1.0;
    }
  }
  const auto n = static_cast<double>(kBatchProblems);
  d.mean_buckets = buckets / n;
  d.mean_degree = ratio(arcs, buckets);
  d.matching_share = matching / n;
  d.backlog_mean_ms = backlog / n;
  d.backlog_nonzero_share = nonzero / n;
  return d;
}

/// The first round's result per problem; every later solve must equal it.
struct BatchReference {
  std::vector<core::SolveResult> results;
  std::vector<char> ok;
};

struct BatchRound {
  double setup_s = 0.0;
  std::vector<double> call_us;
  std::vector<double> span_start_us;  // traced rounds: when each call began
  std::int64_t failed = 0;            // timed solves that failed
};

BatchRound run_batch_round(const BatchWorkload& w, BatchReference& ref,
                           bool traced) {
  BatchRound r;
  const std::size_t distinct = w.batches.size();
  std::vector<std::vector<core::SolveResult>> results(distinct);
  std::vector<char> warm_ok(distinct, 1);

  const auto setup_start = Clock::now();
  core::BatchOptions options;
  options.threads = kBatchWorkers;
  options.policy = batch_policy();
  core::BatchSolver solver(options);
  for (std::size_t b = 0; b < distinct; ++b) {
    try {
      solver.solve_into(w.batches[b], results[b]);
    } catch (const std::exception& e) {
      warm_ok[b] = 0;
      note_failure("warm-up batch " + std::to_string(b) + ": " + e.what());
    }
  }
  r.setup_s = seconds_since(setup_start);

  // The first round verifies its warm-up results and keeps them as the
  // reference; every later solve must reproduce them exactly.
  const bool first = ref.results.empty();
  if (first) {
    ref.results.resize(kBatchProblems);
    ref.ok.assign(kBatchProblems, 0);
  }
  std::vector<char> good(kBatchProblems, 0);
  const std::size_t stride = kBatchProblems / kReferenceSamples;
  for (std::size_t p = 0; p < kBatchProblems; ++p) {
    const std::size_t b = p / kBatchSize;
    if (!warm_ok[b]) continue;
    const core::SolveResult& got = results[b][p % kBatchSize];
    if (first) {
      ref.results[p] = got;
      ref.ok[p] = verify_schedule(w.batches[b][p % kBatchSize], got.schedule,
                                  got.response_time_ms, p % stride == 0);
    } else if (ref.ok[p] && !same_result(got, ref.results[p])) {
      note_failure("problem " + std::to_string(p) +
                   " differs from the first round's");
      continue;
    }
    good[p] = ref.ok[p];
  }

  std::int64_t differing = 0;
  const auto timed_start = Clock::now();
  for (std::size_t k = 0; k < kBatchShape.timed; ++k) {
    const std::size_t b = k % distinct;
    if (traced) {
      r.span_start_us.push_back(us_between(timed_start, Clock::now()));
    }
    const auto start = Clock::now();
    bool threw = false;
    try {
      solver.solve_into(w.batches[b], results[b]);
    } catch (const std::exception& e) {
      threw = true;
      note_failure("batch " + std::to_string(b) + ": " + e.what());
    }
    r.call_us.push_back(us_between(start, Clock::now()));
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      const std::size_t p = b * kBatchSize + i;
      if (threw || !good[p]) {
        ++r.failed;
      } else if (!same_result(results[b][i], ref.results[p])) {
        ++r.failed;
        ++differing;
      }
    }
  }
  if (differing > 0) {
    note_failure(std::to_string(differing) +
                 " timed solves differ from the first round's");
  }
  return r;
}

/// Per-layer metrics of batch_burst, from its last traced round.
void replay_batch(const BatchWorkload& w, const BatchReference& ref,
                  const BatchRound& traced, double overhead_pct,
                  Result& res) {
  const std::size_t distinct = w.batches.size();
  LayerReplay layers(batch_policy());
  for (std::size_t p = 0; p < kBatchProblems; ++p) {  // warm the instances
    layers.replay(w.batches[p / kBatchSize][p % kBatchSize],
                  ref.results[p].response_time_ms,
                  LayerReplay::Record::kNothing);
  }
  std::vector<double> build_us;
  double context_us = 0.0, batch_us = 0.0, backlog = 0.0;
  std::int64_t failed = 0;
  const std::size_t batches = std::min(kReplayBatches, traced.call_us.size());
  for (std::size_t k = 0; k < batches; ++k) {
    const std::size_t b = k % distinct;
    batch_us += traced.call_us[k];
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      const std::size_t p = b * kBatchSize + i;
      const auto b0 = Clock::now();
      const core::RetrievalProblem problem =
          core::build_problem(*w.allocation, w.queries[p], w.systems[p]);
      build_us.push_back(us_between(b0, Clock::now()));
      if (!layers.replay(problem, ref.results[p].response_time_ms,
                         LayerReplay::Record::kTimesAndWork)) {
        ++failed;
      }
      context_us += layers.context_us.back();
      backlog += max_initial_load(problem);
    }
  }
  res.failed = std::min(res.failed + failed, res.attempted);
  // Single-thread solve time of the replayed batches over the worker time
  // their batch calls took.
  const double efficiency = ratio(context_us, kBatchWorkers * batch_us);
  add_layer_metrics(res, layers, ratio(backlog, layers.problems), build_us,
                    0.0, 0.0, efficiency, overhead_pct);
}

Result run_batch(const std::string& workload, std::uint64_t seed,
                 double seconds, bool trace) {
  const BatchWorkload w = make_batch_workload(seed);
  const std::size_t distinct = w.batches.size();
  const std::size_t solves = kBatchShape.timed * kBatchSize;
  Result res;
  BatchReference ref;
  RoundFigures untraced, traced;
  std::optional<BatchRound> last_traced;
  std::size_t rounds = 0;
  const auto start = Clock::now();
  do {
    const bool trace_round = trace && rounds % 2 == 1;
    BatchRound r = run_batch_round(w, ref, trace_round);
    ++rounds;
    res.attempted += static_cast<std::int64_t>(solves);
    res.failed += r.failed;
    (trace_round ? traced : untraced)
        .add(solves, r.call_us, r.setup_s);
    if (trace_round) last_traced = std::move(r);
  } while (
      !rounds_done(trace, untraced, traced, seconds_since(start), seconds));

  if (trace) {
    replay_batch(w, ref, *last_traced, trace_overhead_pct(untraced, traced),
                 res);
  } else {
    // The model response of every timed solve; the timed batches cycle the
    // distinct ones.
    std::vector<double> response_ms;
    response_ms.reserve(solves);
    for (std::size_t k = 0; k < kBatchShape.timed; ++k) {
      for (std::size_t i = 0; i < kBatchSize; ++i) {
        response_ms.push_back(
            ref.results[(k % distinct) * kBatchSize + i].response_time_ms);
      }
    }
    add_end_to_end(res, untraced, response_ms);
  }
  print_description(workload, rounds, res, describe_batch(w));
  return res;
}

// ---- Driver ---------------------------------------------------------------

const char* const kWorkloads[] = {"stream_paper", "stream_dense",
                                  "overload_coalesce", "batch_burst"};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Options parse_options(int argc, char** argv) {
  const std::string usage =
      "usage: serve_bench --workload <name> --seed <n> --seconds <s> "
      "--trace <0|1>";
  Options o;
  int given = 0;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(usage);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      o.trace = value == "1";
    } else {
      throw std::invalid_argument(usage);
    }
    ++given;
  }
  const bool known =
      std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* name) { return o.workload == name; }) !=
      std::end(kWorkloads);
  if (given != 4 || !known || !(o.seconds > 0.0)) {
    throw std::invalid_argument(usage);
  }
  return o;
}

void print_metric_line(const char* kind, const Metric& m) {
  std::printf("%s %s = %.6g %s\n", kind, m.name.c_str(), m.value,
              m.unit.c_str());
}

void print_json(const Result& res) {
  for (const Metric& m : res.metrics) {
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              res.failed == 0 ? "true" : "false",
              static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed));
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_options(argc, argv);
    std::printf("host: nproc=%u cxx=\"%s\" build=%s seed=%llu workload=%s "
                "seconds=%g trace=%d\n",
                std::thread::hardware_concurrency(), __VERSION__,
                PERFBENCH_BUILD_TYPE, static_cast<unsigned long long>(o.seed),
                o.workload.c_str(), o.seconds, o.trace ? 1 : 0);
    const Result res =
        o.workload == "batch_burst"
            ? run_batch(o.workload, o.seed, o.seconds, o.trace)
            : run_stream(o.workload, o.seed, o.seconds, o.trace);
    for (const Metric& m : res.metrics) print_metric_line("metric", m);
    for (const Metric& m : res.notes) print_metric_line("layer", m);
    std::printf("failed_frac = %.6g (%lld of %lld queries)\n",
                ratio(static_cast<double>(res.failed),
                      static_cast<double>(res.attempted)),
                static_cast<long long>(res.failed),
                static_cast<long long>(res.attempted));
    print_json(res);
    return res.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 2;
  }
}
