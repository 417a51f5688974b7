// QueryRouter: admission-controlled front door for query streams.
//
// The stream scheduler solves every query it is handed, so under sustained
// overload (arrival rate beyond what the disks can absorb) the busy
// horizon — the X_j initial loads of the paper's Section II-A stream
// model — grows without bound and response times diverge.  The router sits
// in front of one QueryStreamScheduler and keys its decisions off the
// scheduler's max outstanding X_j horizon at each arrival:
//
//   kOff      pass-through (measurement baseline),
//   kShed     drop arrivals while the backlog exceeds the threshold,
//   kCoalesce buffer arrivals while overloaded and submit them as ONE
//             merged retrieval problem once the backlog drains, the buffer
//             fills, or the oldest buffered query ages past
//             max_coalesce_age_ms.
//
// Coalescing is exact, not an approximation: a merged problem is the
// *union* of the member queries' buckets (first-appearance order), and
// since the X_j model derives every disk's initial load from the busy
// horizon at the (shared) submission instant, the merged solve optimizes
// the true joint response time of the batch — one max-flow instead of k,
// with no model error.  Buckets shared by several buffered queries are
// retrieved once for all of them (submit() dedups by bucket id), which is
// where coalescing genuinely sheds work: overlapping range queries — the
// paper's Section VI-B workload — collapse instead of re-fetching the same
// blocks, so under sustained overload the merged stream can fall back
// under the array's capacity while kOff diverges.  (submit_replicas() has
// no bucket identities to compare, so it concatenates without dedup.)
// Every decision is recorded in the `router.*` instruments (router.cpp,
// docs/OBSERVABILITY.md) and per-decision spans.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/stream.h"
#include "workload/query.h"

namespace repflow::core {

enum class AdmissionMode {
  kOff,       ///< admit everything (baseline)
  kShed,      ///< drop arrivals while over the backlog threshold
  kCoalesce,  ///< merge arrivals while over the backlog threshold
};

struct RouterOptions {
  AdmissionMode mode = AdmissionMode::kOff;
  /// Backlog threshold: the admission modes trigger when the scheduler's
  /// max outstanding X_j horizon at an arrival exceeds this.  The default
  /// (+inf) never triggers, making kShed/kCoalesce behave like kOff.
  double max_backlog_ms = std::numeric_limits<double>::infinity();
  /// kCoalesce: flush the merge buffer once it holds this many queries,
  /// even if the backlog has not drained (bounds the batch size and the
  /// wait of the oldest buffered query).
  std::size_t max_coalesce = 32;
  /// kCoalesce: flush once the *oldest* buffered query has waited this many
  /// (virtual) ms, even if the backlog has not drained and the buffer is
  /// not full.  The router is virtual-time driven, so age is evaluated at
  /// each arrival; under partial overload — backlog stuck above the
  /// threshold but arrivals still trickling in — this bounds the wait of an
  /// early coalesced query that a count-only trigger would strand.  +inf
  /// (the default) disables the bound.  Age-forced flushes are counted in
  /// `router.age_flushes`; every flush observes `router.flush_age_ms`.
  double max_coalesce_age_ms = std::numeric_limits<double>::infinity();
  /// Per-query latency budget for the flight recorder: when the submission
  /// an arrival produced (an admit or a flush) has an optimal response time
  /// above this, the router triggers a breach dump (the arrival's full
  /// admission->solve event chain is copied into the recorder's breach
  /// log).  flush() checks no budget.  0 (the default) or +inf disables
  /// breach tracking.
  double latency_budget_ms = 0.0;
};

enum class RouterDecision {
  kAdmitted,   ///< submitted alone, immediately
  kShed,       ///< dropped; never reached the scheduler
  kCoalesced,  ///< buffered; will ride a future merged submission
  kFlushed,    ///< submitted as part of a merged batch (buffer drained)
};

/// What happened to one arrival (or to a flush() call).
struct RouterOutcome {
  RouterDecision decision = RouterDecision::kAdmitted;
  /// Flight-recorder id assigned to this arrival (0 in
  /// REPFLOW_OBS_DISABLED builds); every pipeline event of the query is
  /// tagged with it.  See DESIGN.md, "query-id propagation".
  std::uint64_t query_id = 0;
  /// The scheduler's max outstanding X_j horizon at this arrival.
  double backlog_ms = 0.0;
  /// Queries contained in the submission this arrival produced (1 for a
  /// plain admit, the batch size for a flush, 0 for shed/coalesced).
  std::int64_t merged = 0;
  /// The scheduler event, when a submission actually happened.  A flushed
  /// event's schedule covers all merged queries' buckets in buffer order.
  std::optional<StreamEvent> event;
};

struct RouterStats {
  std::int64_t arrivals = 0;
  std::int64_t admitted = 0;   ///< queries submitted alone
  std::int64_t shed = 0;
  std::int64_t coalesced = 0;  ///< queries that went through the buffer
  std::int64_t flushes = 0;    ///< merged submissions
  std::int64_t age_flushes = 0;///< flushes forced by max_coalesce_age_ms
  std::int64_t dedup_hits = 0; ///< buckets already waiting in the buffer
  std::size_t max_pending = 0; ///< high-water mark of the merge buffer
};

/// Fronts one scheduler.  Not thread-safe (same discipline as the
/// scheduler itself).  Arrivals must be non-decreasing, matching the
/// scheduler's stream contract; violations throw std::invalid_argument
/// before any state changes.  So does a replica list the scheduler would
/// reject (a bucket without a replica, a disk id out of range): kCoalesce
/// checks it before buffering, the other modes leave it to the solve.
/// Either way the rejected arrival leaves router and scheduler as they
/// were, clocks, stats and merge buffer included.
class QueryRouter {
 public:
  /// Throws std::invalid_argument when max_coalesce is 0 or when
  /// max_backlog_ms, max_coalesce_age_ms or latency_budget_ms is negative
  /// or NaN (0 and +inf are legal).
  QueryRouter(QueryStreamScheduler& scheduler, RouterOptions options);

  /// Route one query arriving at `arrival_ms`.  Throws std::logic_error if
  /// the scheduler is in trace-replay mode (no allocation to map bucket ids
  /// through) — use submit_replicas there.
  RouterOutcome submit(const workload::Query& query, double arrival_ms);

  /// Route one query given directly as bucket replica lists (works in both
  /// scheduler modes).
  RouterOutcome submit_replicas(std::vector<std::vector<DiskId>> replicas,
                                double arrival_ms);

  /// Drain the merge buffer (if any) at `arrival_ms`, e.g. at end of
  /// stream.  Returns the merged submission's event, or nullopt when the
  /// buffer was empty.
  std::optional<StreamEvent> flush(double arrival_ms);

  /// Queries currently sitting in the merge buffer.
  std::size_t pending() const { return pending_queries_; }

  const RouterOptions& options() const { return options_; }
  const RouterStats& stats() const { return stats_; }

 private:
  /// Throws std::invalid_argument when `arrival_ms` is not finite or
  /// precedes the last served arrival.
  void require_in_order(double arrival_ms) const;
  /// An arrival comes as bucket ids (`query`, mapped through the
  /// scheduler's allocation; enables dedup) or as replica lists
  /// (`replicas`); exactly one is non-null.  Checks the arrival, dispatches
  /// it, and commits the clock once it was served.
  RouterOutcome route(const workload::Query* query,
                      std::vector<std::vector<DiskId>>* replicas,
                      double arrival_ms);
  /// The admission decision and the submission it leads to.
  RouterOutcome dispatch(const workload::Query* query,
                         std::vector<std::vector<DiskId>>* replicas,
                         double arrival_ms);
  /// Append one arrival to the merge buffer, deduplicating a query against
  /// buckets already buffered.  Builds a query's replica lists only here.
  /// Throws, before any change, on a list the scheduler would reject
  /// (validate_replicas).  `query_id`/`arrival_ms` feed the flight
  /// recorder and the age-based flush bound.
  void buffer(const workload::Query* query,
              std::vector<std::vector<DiskId>>* replicas,
              std::uint64_t query_id, double arrival_ms);
  /// Submit the merge buffer as one problem; pending state is re-armed
  /// before the solve, so it is re-armed even when the solve throws.
  StreamEvent flush_pending(double arrival_ms);

  QueryStreamScheduler& scheduler_;
  RouterOptions options_;
  RouterStats stats_;
  // Merge buffer: the union of the coalesced queries' bucket replica lists
  // (first-appearance order), the id set backing dedup, and the query
  // count for the batch histogram.
  std::vector<std::vector<DiskId>> pending_replicas_;
  std::unordered_set<decluster::BucketId> pending_buckets_;
  std::size_t pending_queries_ = 0;
  // Flight-recorder ids of the buffered queries (so a flush can stamp a
  // kFlush event onto every member's chain) and the arrival instant of the
  // oldest one (the age the time-based flush keys off).
  std::vector<std::uint64_t> pending_ids_;
  double oldest_pending_arrival_ms_ = 0.0;
  double last_arrival_ms_ = 0.0;
};

}  // namespace repflow::core
