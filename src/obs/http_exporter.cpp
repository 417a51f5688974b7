#include "obs/http_exporter.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <utility>

#include "obs/export_prom.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace repflow::obs {

namespace {

/// Receive/send deadline on every accepted client socket.  The exporter
/// serves one client at a time, so without it a client that connects and
/// stays silent would stall every later scrape and stop().
constexpr timeval kClientIoDeadline{/*tv_sec=*/1, /*tv_usec=*/0};

std::string http_response(int status, const char* reason,
                          const char* content_type, std::string body) {
  std::ostringstream os;
  os << "HTTP/1.1 " << status << ' ' << reason << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  return os.str();
}

/// First token after the method in "GET /metrics HTTP/1.1".
std::string_view request_target(std::string_view request) {
  const std::size_t sp1 = request.find(' ');
  if (sp1 == std::string_view::npos) return {};
  const std::size_t sp2 = request.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return {};
  std::string_view target = request.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = target.find('?');
  if (query != std::string_view::npos) target = target.substr(0, query);
  return target;
}

}  // namespace

HttpExporter::HttpExporter(HttpExporterOptions options)
    : options_(std::move(options)), watchdog_(options_.objectives) {}

HttpExporter::~HttpExporter() { stop(); }

bool HttpExporter::start() {
  // mo: acquire/release on running_ — the release store below publishes the
  // bound socket state to anyone observing running()==true.
  if (running_.load(std::memory_order_acquire)) return true;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  } else {
    port_ = options_.port;
  }

  {
    support::MutexLock lock(stop_mutex_);
    stopping_ = false;
  }
  // mo: release — publishes the bound socket/port to running() observers
  // (pairs with the acquire loads in running() and serve_loop()).
  running_.store(true, std::memory_order_release);
  serve_thread_ = std::thread(&HttpExporter::serve_loop, this);
  tick_thread_ = std::thread(&HttpExporter::tick_loop, this);
  return true;
}

void HttpExporter::stop() {
  // mo: acq_rel — the exchange both claims the single stop (acquire pairs
  // with start's release) and publishes "stopped" to running() observers.
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    support::MutexLock lock(stop_mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (serve_thread_.joinable()) serve_thread_.join();
  if (tick_thread_.joinable()) tick_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

WindowSnapshot HttpExporter::tick_now() {
  const WindowSnapshot window = aggregator_.tick_global();
  watchdog_.observe(window);
  return window;
}

std::string HttpExporter::handle(std::string_view target) const {
  if (target == "/metrics" || target == "/metrics/") {
    std::ostringstream body;
    write_metrics_prom(body, Registry::global().snapshot());
    write_window_prom(body, aggregator_.latest());
    body << "# TYPE repflow_slo_healthy gauge\n"
         << "repflow_slo_healthy " << (watchdog_.healthy() ? 1 : 0) << '\n';
    return http_response(200, "OK",
                         "text/plain; version=0.0.4; charset=utf-8",
                         body.str());
  }
  if (target == "/healthz" || target == "/healthz/") {
    const bool healthy = watchdog_.healthy();
    return http_response(healthy ? 200 : 503,
                         healthy ? "OK" : "Service Unavailable",
                         "application/json", slo_health_json(watchdog_));
  }
  if (target == "/flightrecorder" || target == "/flightrecorder/") {
    return http_response(200, "OK", "application/json",
                         flight_recorder_json(FlightRecorder::global()));
  }
  return http_response(404, "Not Found", "text/plain",
                       "unknown endpoint; try /metrics /healthz "
                       "/flightrecorder\n");
}

std::string HttpExporter::respond(std::string_view request) const {
  return handle(request_target(request));
}

void HttpExporter::serve_loop() {
  // mo: acquire — pairs with stop()'s acq_rel exchange; seeing false means
  // the socket teardown that follows in stop() has not happened yet (stop
  // joins this thread before closing the fd).
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &kClientIoDeadline,
                 sizeof(kClientIoDeadline));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &kClientIoDeadline,
                 sizeof(kClientIoDeadline));

    char buf[4096];
    const ssize_t n = ::recv(client, buf, sizeof(buf) - 1, 0);
    if (n > 0) {
      buf[n] = '\0';
      const std::string response =
          respond(std::string_view(buf, static_cast<std::size_t>(n)));
      std::size_t sent = 0;
      while (sent < response.size()) {
        const ssize_t w = ::send(client, response.data() + sent,
                                 response.size() - sent, MSG_NOSIGNAL);
        if (w <= 0) break;
        sent += static_cast<std::size_t>(w);
      }
    }
    ::close(client);
  }
}

void HttpExporter::tick_loop() {
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              options_.tick_interval_ms > 0 ? options_.tick_interval_ms
                                            : 1000.0));
  for (;;) {
    const auto deadline = std::chrono::steady_clock::now() + interval;
    {
      support::MutexLock lock(stop_mutex_);
      // Explicit predicate loop (not a lambda-predicate wait): the
      // thread-safety analysis can check stopping_ accesses here, and
      // spurious wakeups re-test both the flag and the deadline.
      while (!stopping_) {
        if (stop_cv_.wait_until(stop_mutex_, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (stopping_) return;
    }
    tick_now();
  }
}

}  // namespace repflow::obs
