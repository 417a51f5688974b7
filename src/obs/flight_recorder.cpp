#include "obs/flight_recorder.h"

#include <algorithm>
#include <sstream>

namespace repflow::obs {

const char* flight_event_kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kAdmit: return "admit";
    case FlightEventKind::kShed: return "shed";
    case FlightEventKind::kCoalesce: return "coalesce";
    case FlightEventKind::kFlush: return "flush";
    case FlightEventKind::kSolve: return "solve";
    case FlightEventKind::kSchedule: return "schedule";
    case FlightEventKind::kBreach: return "breach";
  }
  return "?";
}

namespace {

thread_local ActiveQuery t_active_query;

}  // namespace

QueryScope::QueryScope(std::uint64_t id) : saved_(t_active_query) {
  if constexpr (kEnabled) t_active_query = ActiveQuery{id};
}

QueryScope::~QueryScope() { t_active_query = saved_; }

ActiveQuery QueryScope::current() { return t_active_query; }

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(kEnabled ? std::max<std::size_t>(1, capacity) : 0),
      epoch_ns_(Clock::now().time_since_epoch().count()) {}

void FlightRecorder::record(std::uint64_t query_id, FlightEventKind kind,
                            double value, std::int32_t detail) {
  if constexpr (!kEnabled) return;
  // mo: relaxed — the ticket is a bare slot claim; publication of the
  // event payload happens through the slot's seqlock stamp, not head_.
  const std::uint64_t ticket =
      head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[static_cast<std::size_t>(ticket % slots_.size())];
  // Seqlock: claim the slot by moving its stamp from a published (even)
  // value older than this ticket to our odd stamp, then publish 2*ticket+2.
  // An odd stamp means another writer still holds the slot, and a larger
  // stamp means a later ticket already published here; both happen only
  // when a writer stalls for a full ring wrap, and this event is dropped
  // rather than interleaved with theirs.
  const std::uint64_t writing = 2 * ticket + 1;
  // The claim reads the previous writer's release publish; acquiring it
  // orders that writer's payload stores before ours, so no reader can see
  // them win.  Readers learn of the claim through the release payload
  // stores below.
  // mo: relaxed pre-check (the CAS re-reads); acquire claim — see above.
  std::uint64_t seen = slot.stamp.load(std::memory_order_relaxed);
  if (seen % 2 != 0 || seen > writing ||
      !slot.stamp.compare_exchange_strong(seen, writing,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
    return;
  }
  // mo: relaxed — the epoch is a coarse timestamp base; a reader racing
  // clear() may see old-epoch t_ms values, which the torn-slot contract
  // already tolerates.
  const auto epoch = Clock::time_point(
      Clock::duration(epoch_ns_.load(std::memory_order_relaxed)));
  const double t_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - epoch)
          .count();
  // Each release payload store carries the odd claim stamp: a reader whose
  // acquire load returns one of these values then sees the stamp at or past
  // `writing` on its re-check, and drops the copy.  (Release/acquire fields
  // rather than relaxed fields plus fences: ThreadSanitizer does not model
  // std::atomic_thread_fence.)
  // mo: release — see the payload note above.
  slot.query_id.store(query_id, std::memory_order_release);
  slot.t_ms.store(t_ms, std::memory_order_release);
  slot.value.store(value, std::memory_order_release);
  slot.detail.store(detail, std::memory_order_release);
  slot.kind.store(kind, std::memory_order_release);
  // mo: release — publishes the completed payload; pairs with the acquire
  // stamp loads in events().
  slot.stamp.store(writing + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::events() const {
  // mo: acquire — pairs with clear()'s release store (see recorded()).
  const std::uint64_t floor = floor_.load(std::memory_order_acquire);
  std::vector<FlightEvent> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    // mo: acquire — pairs with the writer's release publish: an even stamp
    // makes that writer's payload visible.
    const std::uint64_t before = slot.stamp.load(std::memory_order_acquire);
    // Skip mid-write slots, never-written ones (stamp 0) and events
    // recorded before the last clear() (ticket < floor).
    if (before % 2 != 0 || before < 2 * floor + 2) continue;
    FlightEvent copy;
    copy.seq = before / 2 - 1;
    // A payload value stored by a later writer carries that writer's claim
    // stamp (see record()); acquire also keeps the re-check below after the
    // copy.
    // mo: acquire — see the payload note above.
    copy.query_id = slot.query_id.load(std::memory_order_acquire);
    copy.t_ms = slot.t_ms.load(std::memory_order_acquire);
    copy.value = slot.value.load(std::memory_order_acquire);
    copy.detail = slot.detail.load(std::memory_order_acquire);
    copy.kind = slot.kind.load(std::memory_order_acquire);
    // mo: relaxed — ordered after the payload loads by their acquire.
    // Stamps never repeat, so an unchanged stamp means no writer claimed
    // the slot while we copied.
    if (slot.stamp.load(std::memory_order_relaxed) != before) continue;
    out.push_back(copy);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<FlightEvent> FlightRecorder::query_events(
    std::uint64_t query_id) const {
  std::vector<FlightEvent> all = events();
  std::vector<FlightEvent> out;
  for (const FlightEvent& e : all) {
    if (e.query_id == query_id) out.push_back(e);
  }
  return out;
}

void FlightRecorder::note_breach(std::uint64_t query_id, double response_ms,
                                 double budget_ms) {
  if constexpr (!kEnabled) return;
  record(query_id, FlightEventKind::kBreach, response_ms);
  BreachDump dump;
  dump.query_id = query_id;
  dump.response_ms = response_ms;
  dump.budget_ms = budget_ms;
  dump.chain = query_events(query_id);
  support::MutexLock lock(breach_mutex_);
  breaches_.push_back(std::move(dump));
  while (breaches_.size() > kMaxBreachDumps) breaches_.pop_front();
}

std::vector<BreachDump> FlightRecorder::breaches() const {
  support::MutexLock lock(breach_mutex_);
  return {breaches_.begin(), breaches_.end()};
}

void FlightRecorder::clear() {
  // Tickets drawn before this point are hidden.  Concurrent writers need
  // no other edge: clear is only exact when recorders are quiescent (the
  // Counter::reset contract).
  // mo: release — publishes the head_ load to recorded() and events(),
  // whose acquire floor loads then never see head_ below floor_.
  floor_.store(head_.load(std::memory_order_relaxed),
               std::memory_order_release);
  {
    support::MutexLock lock(breach_mutex_);
    breaches_.clear();
  }
  // mo: relaxed — see the epoch note in record().
  epoch_ns_.store(Clock::now().time_since_epoch().count(),
                  std::memory_order_relaxed);
}

namespace {

void append_event_json(std::ostringstream& os, const FlightEvent& e) {
  os << "{\"query_id\":" << e.query_id << ",\"seq\":" << e.seq
     << ",\"t_ms\":" << e.t_ms << ",\"kind\":\""
     << flight_event_kind_name(e.kind) << "\",\"value\":" << e.value
     << ",\"detail\":" << e.detail << "}";
}

}  // namespace

std::string flight_recorder_json(const FlightRecorder& recorder) {
  std::ostringstream os;
  const std::vector<FlightEvent> events = recorder.events();
  const std::vector<BreachDump> breaches = recorder.breaches();
  os << "{\"capacity\":" << recorder.capacity()
     << ",\"recorded\":" << recorder.recorded() << ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) os << ",";
    append_event_json(os, events[i]);
  }
  os << "],\"breaches\":[";
  for (std::size_t i = 0; i < breaches.size(); ++i) {
    const BreachDump& b = breaches[i];
    if (i > 0) os << ",";
    os << "{\"query_id\":" << b.query_id
       << ",\"response_ms\":" << b.response_ms
       << ",\"budget_ms\":" << b.budget_ms << ",\"chain\":[";
    for (std::size_t j = 0; j < b.chain.size(); ++j) {
      if (j > 0) os << ",";
      append_event_json(os, b.chain[j]);
    }
    os << "]}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace repflow::obs
