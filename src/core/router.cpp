#include "core/router.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace repflow::core {

namespace {

// The router's instruments (docs/OBSERVABILITY.md, "Who records what"),
// resolved once per process: the hot path never takes the registry mutex.
struct RouterMetrics {
  obs::Counter& admitted;
  obs::Counter& shed;
  obs::Counter& coalesced;
  obs::Counter& flushes;
  obs::Counter& age_flushes;
  obs::Counter& deduped;
  obs::Histogram& backlog_ms;
  obs::Histogram& merged_batch;
  obs::Histogram& flush_age_ms;
  obs::Gauge& pending;
};

RouterMetrics& router_metrics() {
  static RouterMetrics metrics{
      obs::Registry::global().counter("router.admitted"),
      obs::Registry::global().counter("router.shed"),
      obs::Registry::global().counter("router.coalesced"),
      obs::Registry::global().counter("router.flushes"),
      obs::Registry::global().counter("router.age_flushes"),
      obs::Registry::global().counter("router.deduped"),
      obs::Registry::global().histogram("router.backlog_ms"),
      obs::Registry::global().histogram("router.merged_batch"),
      obs::Registry::global().histogram("router.flush_age_ms"),
      obs::Registry::global().gauge("router.pending")};
  return metrics;
}

}  // namespace

QueryRouter::QueryRouter(QueryStreamScheduler& scheduler,
                         RouterOptions options)
    : scheduler_(scheduler), options_(options) {
  // Each threshold is compared with `>`, which is false against NaN, so a
  // NaN would silently switch its bound off; 0 and +inf stay legal.
  const auto require_non_negative = [](double value, const char* name) {
    if (!(value >= 0.0)) {
      throw std::invalid_argument(std::string("QueryRouter: ") + name +
                                  " must be >= 0 and not NaN");
    }
  };
  require_non_negative(options_.max_backlog_ms, "max_backlog_ms");
  require_non_negative(options_.max_coalesce_age_ms, "max_coalesce_age_ms");
  require_non_negative(options_.latency_budget_ms, "latency_budget_ms");
  if (options_.max_coalesce < 1) {
    throw std::invalid_argument("QueryRouter: max_coalesce must be >= 1");
  }
}

RouterOutcome QueryRouter::submit(const workload::Query& query,
                                  double arrival_ms) {
  if (scheduler_.allocation() == nullptr) {
    throw std::logic_error(
        "QueryRouter: scheduler has no allocation (trace-replay mode); use "
        "submit_replicas");
  }
  return route(&query, nullptr, arrival_ms);
}

RouterOutcome QueryRouter::submit_replicas(
    std::vector<std::vector<DiskId>> replicas, double arrival_ms) {
  return route(nullptr, &replicas, arrival_ms);
}

void QueryRouter::buffer(const workload::Query* query,
                         std::vector<std::vector<DiskId>>* replicas,
                         std::uint64_t query_id, double arrival_ms) {
  std::vector<std::vector<DiskId>> lists =
      query != nullptr ? replica_lists(*scheduler_.allocation(), *query)
                       : std::move(*replicas);
  // A list the solve seam would reject must not reach the merged problem,
  // where it would sink the whole batch.
  validate_replicas(lists, scheduler_.total_disks());
  RouterMetrics& metrics = router_metrics();
  for (std::size_t k = 0; k < lists.size(); ++k) {
    if (query != nullptr) {
      // A bucket already waiting in the buffer is retrieved once for every
      // query that asked for it: skip the duplicate arc set.
      if (!pending_buckets_.insert((*query)[k]).second) {
        ++stats_.dedup_hits;
        metrics.deduped.add(1);
        continue;
      }
    }
    pending_replicas_.push_back(std::move(lists[k]));
  }
  if (pending_queries_ == 0) oldest_pending_arrival_ms_ = arrival_ms;
  pending_ids_.push_back(query_id);
  ++pending_queries_;
  ++stats_.coalesced;
  stats_.max_pending = std::max(stats_.max_pending, pending_queries_);
}

void QueryRouter::require_in_order(double arrival_ms) const {
  if (!std::isfinite(arrival_ms)) {
    throw std::invalid_argument("QueryRouter: arrival is not finite");
  }
  if (arrival_ms < last_arrival_ms_) {
    throw std::invalid_argument(
        "QueryRouter: arrivals must be non-decreasing");
  }
}

RouterOutcome QueryRouter::route(const workload::Query* query,
                                 std::vector<std::vector<DiskId>>* replicas,
                                 double arrival_ms) {
  require_in_order(arrival_ms);
  RouterOutcome outcome = dispatch(query, replicas, arrival_ms);
  // Committed only once the arrival was served: a rejected one leaves the
  // router as it was.
  last_arrival_ms_ = arrival_ms;
  ++stats_.arrivals;
  // Latency budget: a submission that answered late dumps this arrival's
  // chain (admit, or coalesce and flush; then solve and schedule) while it
  // is still in the flight ring.
  if (outcome.event && options_.latency_budget_ms > 0.0 &&
      outcome.event->response_ms > options_.latency_budget_ms) {
    obs::FlightRecorder::global().note_breach(outcome.query_id,
                                              outcome.event->response_ms,
                                              options_.latency_budget_ms);
  }
  return outcome;
}

RouterOutcome QueryRouter::dispatch(const workload::Query* query,
                                    std::vector<std::vector<DiskId>>* replicas,
                                    double arrival_ms) {
  RouterMetrics& metrics = router_metrics();
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  RouterOutcome outcome;
  // Every arrival gets a flight-recorder id at the front door; the ambient
  // scope carries it through the solve and the schedule (DESIGN.md,
  // "query-id propagation").
  outcome.query_id = recorder.next_query_id();
  obs::QueryScope scope(outcome.query_id);
  outcome.backlog_ms = scheduler_.max_backlog_at(arrival_ms);
  metrics.backlog_ms.observe(outcome.backlog_ms);

  const bool overloaded = outcome.backlog_ms > options_.max_backlog_ms;

  if (options_.mode == AdmissionMode::kShed && overloaded) {
    obs::ScopedSpan span("router.shed");
    metrics.shed.add(1);
    ++stats_.shed;
    recorder.record(outcome.query_id, obs::FlightEventKind::kShed,
                    outcome.backlog_ms);
    outcome.decision = RouterDecision::kShed;
    return outcome;
  }

  if (options_.mode == AdmissionMode::kCoalesce &&
      (overloaded || pending_queries_ > 0)) {
    // Park the query in the merge buffer.  It waits there while the backlog
    // is over the threshold and the buffer is neither full nor aged;
    // otherwise the whole buffer rides out as one merged problem.
    buffer(query, replicas, outcome.query_id, arrival_ms);
    metrics.coalesced.add(1);
    recorder.record(outcome.query_id, obs::FlightEventKind::kCoalesce,
                    outcome.backlog_ms);
    const bool full = pending_queries_ >= options_.max_coalesce;
    const bool aged = arrival_ms - oldest_pending_arrival_ms_ >=
                      options_.max_coalesce_age_ms;
    if (overloaded && !full) {
      if (!aged) {
        metrics.pending.set(static_cast<double>(pending_queries_));
        outcome.decision = RouterDecision::kCoalesced;
        return outcome;
      }
      // A time-based flush: the buffer is not full, but its oldest member
      // has waited past the bound (partial overload would otherwise strand
      // it indefinitely).
      metrics.age_flushes.add(1);
      ++stats_.age_flushes;
    }
    outcome.decision = RouterDecision::kFlushed;
    outcome.merged = static_cast<std::int64_t>(pending_queries_);
    outcome.event = flush_pending(arrival_ms);
    return outcome;
  }

  // Plain admission (kOff, or an un-overloaded kShed/kCoalesce arrival
  // with nothing pending).
  obs::ScopedSpan span("router.admit");
  recorder.record(outcome.query_id, obs::FlightEventKind::kAdmit,
                  outcome.backlog_ms);
  outcome.event =
      query != nullptr
          ? scheduler_.submit(*query, arrival_ms)
          : scheduler_.submit_replicas(std::move(*replicas), arrival_ms);
  metrics.admitted.add(1);
  ++stats_.admitted;
  outcome.decision = RouterDecision::kAdmitted;
  outcome.merged = 1;
  return outcome;
}

std::optional<StreamEvent> QueryRouter::flush(double arrival_ms) {
  require_in_order(arrival_ms);
  std::optional<StreamEvent> event;
  if (pending_queries_ > 0) event = flush_pending(arrival_ms);
  last_arrival_ms_ = arrival_ms;
  return event;
}

StreamEvent QueryRouter::flush_pending(double arrival_ms) {
  obs::ScopedSpan span("router.flush");
  RouterMetrics& metrics = router_metrics();
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  const double oldest_age_ms = arrival_ms - oldest_pending_arrival_ms_;
  const std::int32_t batch = static_cast<std::int32_t>(pending_queries_);
  // Stamp the flush onto every buffered member's chain, so a breach dump of
  // a coalesced query shows when (and how large) its merged submission was.
  for (const std::uint64_t id : pending_ids_) {
    recorder.record(id, obs::FlightEventKind::kFlush, oldest_age_ms, batch);
  }
  // Re-arm the buffer before the solve: a throwing solve must not leave
  // pending() counting queries whose lists are gone.
  std::vector<std::vector<DiskId>> merged = std::move(pending_replicas_);
  pending_replicas_ = {};
  pending_buckets_.clear();
  pending_queries_ = 0;
  pending_ids_.clear();
  metrics.pending.set(0.0);
  // One solve covers the whole batch; the scheduler derives the merged
  // problem's X_j loads from the busy horizon at this instant, so the
  // batch's joint response time is optimized exactly.
  StreamEvent event = scheduler_.submit_replicas(std::move(merged), arrival_ms);
  metrics.flushes.add(1);
  metrics.merged_batch.observe(static_cast<double>(batch));
  metrics.flush_age_ms.observe(oldest_age_ms);
  ++stats_.flushes;
  return event;
}

}  // namespace repflow::core
