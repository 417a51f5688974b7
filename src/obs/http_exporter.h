// Zero-dependency HTTP exporter: a tiny blocking-socket server that makes
// the telemetry tier scrapeable.
//
//   /metrics         Prometheus text format 0.0.4 — the cumulative registry
//                    (via the shared serializer in export_prom.h) followed
//                    by the latest window's rates, per-window percentiles,
//                    and derived per-disk utilization.
//   /healthz         200 + JSON while the SLO watchdog is healthy,
//                    503 + the same JSON once any objective breached its
//                    latest window.
//   /flightrecorder  JSON dump of the global flight recorder's ring and
//                    breach log.
//
// The exporter owns two background threads: a ticker that snapshots the
// registry every tick_interval, feeds the WindowedAggregator, and runs the
// SloWatchdog; and an accept loop serving one request per connection
// (enough for scrapers; this is an exporter, not a web server).  Each
// connection gets a fixed one-second receive/send deadline, so a silent or
// stalled client delays later scrapes and stop() by at most that.  Neither
// thread touches solver hot paths — scrapes read atomics and copy
// ring slots, so the steady-state solve path stays zero-allocation with the
// exporter attached.
//
// `respond()` renders the full HTTP response to the raw bytes of one
// request, and `handle()` to a request target, without any socket, so tests,
// the request fuzzer (fuzz/fuzz_http_request.cpp) and the kill-switch build
// (obs::kEnabled false, where snapshots are empty) exercise parsing,
// routing and payloads hermetically.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/slo.h"
#include "obs/window.h"
#include "support/thread_annotations.h"

namespace repflow::obs {

struct HttpExporterOptions {
  int port = 0;                      ///< 0 = pick an ephemeral port
  double tick_interval_ms = 1000.0;  ///< window cadence
  std::vector<SloObjective> objectives;
};

class HttpExporter {
 public:
  explicit HttpExporter(HttpExporterOptions options = {});
  ~HttpExporter();
  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Bind + listen and spawn the ticker/accept threads.  Returns false if
  /// the port could not be bound (the exporter stays stopped; telemetry
  /// callers treat that as "run without a scrape endpoint").
  bool start() REPFLOW_EXCLUDES(stop_mutex_);

  /// Stop both threads and close the socket.  Idempotent.
  void stop() REPFLOW_EXCLUDES(stop_mutex_);

  // mo: acquire — pairs with the release store in start() so a caller that
  // observes running()==true also sees the bound port/socket state.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (resolved after start() when options.port was 0).
  int port() const { return port_; }

  /// Windowed state the ticker maintains; shared with scrape handlers.
  WindowedAggregator& aggregator() { return aggregator_; }
  SloWatchdog& watchdog() { return watchdog_; }

  /// Run one tick now (snapshot -> window -> watchdog), regardless of the
  /// background cadence.  Used by tests and by tools that drive the window
  /// cadence themselves.
  WindowSnapshot tick_now();

  /// Full HTTP/1.1 response (status line, headers, body) for a request
  /// target ("/metrics", "/healthz", "/flightrecorder"; anything else is
  /// 404).  Pure with respect to sockets.
  std::string handle(std::string_view target) const;

  /// Full HTTP/1.1 response to the raw bytes of one request (at most one
  /// 4 KiB receive): handle() of the token between the first two spaces,
  /// with any query string dropped.  A request without both spaces gets
  /// the 404 of an unknown endpoint.  This is what the accept loop sends.
  std::string respond(std::string_view request) const;

 private:
  void serve_loop();
  void tick_loop() REPFLOW_EXCLUDES(stop_mutex_);

  HttpExporterOptions options_;
  WindowedAggregator aggregator_;
  SloWatchdog watchdog_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::thread serve_thread_;
  std::thread tick_thread_;
  // stop_mutex_ guards the stop flag the ticker sleeps on (compile-time
  // checked); running_ stays a separate atomic because the serve loop polls
  // it without blocking.
  support::Mutex stop_mutex_;
  support::CondVar stop_cv_;
  bool stopping_ REPFLOW_GUARDED_BY(stop_mutex_) = false;
};

}  // namespace repflow::obs
