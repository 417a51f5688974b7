// Fuzz target for the HTTP exporter's request handling
// (obs::HttpExporter::respond, the socket-free half of its accept loop).
//
// Inputs are the raw bytes of one request, capped at 4095 bytes like the
// accept loop's single receive.  Properties checked on every input:
//   * respond() returns without throwing;
//   * the status line is "HTTP/1.1 200", "HTTP/1.1 404" or "HTTP/1.1 503";
//   * the headers end in a blank line and carry a Content-Length equal to
//     the byte count of the body that follows.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "driver.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"

namespace {

/// The accept loop's receive cap: a 4096-byte buffer less its terminator.
constexpr std::size_t kMaxRequest = 4095;

[[noreturn]] void die(const char* what, std::string_view request,
                      const std::string& response) {
  std::fprintf(stderr,
               "fuzz_http_request: %s\n--- request (%zu bytes) ---\n%.*s\n"
               "--- response ---\n%s\n",
               what, request.size(), static_cast<int>(request.size()),
               request.data(), response.c_str());
  std::abort();
}

const repflow::obs::HttpExporter& exporter() {
  // Never started: respond() needs no socket and no background thread.
  static const repflow::obs::HttpExporter instance;
  return instance;
}

/// Every input lands in a registry histogram, so /metrics renders a body
/// that grows and changes length across inputs instead of a fixed stub.
repflow::obs::Histogram& request_bytes() {
  static repflow::obs::Histogram& histogram =
      repflow::obs::Registry::global().histogram("fuzz.request_bytes");
  return histogram;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > kMaxRequest) size = kMaxRequest;
  const std::string_view request(reinterpret_cast<const char*>(data), size);
  request_bytes().observe(static_cast<double>(size));

  std::string response;
  try {
    response = exporter().respond(request);
  } catch (const std::exception& e) {
    die("respond() threw", request, e.what());
  }

  const std::string_view view(response);
  const std::string_view status = view.substr(0, view.find("\r\n"));
  if (!status.starts_with("HTTP/1.1 200 ") &&
      !status.starts_with("HTTP/1.1 404 ") &&
      !status.starts_with("HTTP/1.1 503 ")) {
    die("unexpected status line", request, response);
  }

  const std::size_t header_end = view.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    die("headers are not terminated by a blank line", request, response);
  }
  const std::string_view headers = view.substr(0, header_end + 2);
  constexpr std::string_view kLength = "\r\nContent-Length: ";
  const std::size_t at = headers.find(kLength);
  if (at == std::string_view::npos) {
    die("no Content-Length header", request, response);
  }
  std::size_t length = 0;
  std::size_t digits = 0;
  for (std::size_t i = at + kLength.size();
       i < headers.size() && headers[i] >= '0' && headers[i] <= '9'; ++i) {
    length = length * 10 + static_cast<std::size_t>(headers[i] - '0');
    ++digits;
  }
  const std::size_t body = view.size() - (header_end + 4);
  if (digits == 0 || length != body) {
    die("Content-Length does not match the body", request, response);
  }
  return 0;
}

namespace repflow::fuzz {

std::vector<std::string> seed_corpus() {
  using namespace std::string_literals;
  return {
      // Every endpoint, as a scraper sends it.
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n",
      "GET /healthz HTTP/1.1\r\n\r\n",
      "GET /flightrecorder HTTP/1.0\r\n\r\n",
      // Query strings and trailing slashes.
      "GET /metrics?name[]=stream&x=%20 HTTP/1.1\r\n\r\n",
      "GET /healthz/?verbose HTTP/1.1\r\n\r\n",
      "GET /flightrecorder/ HTTP/1.1\r\n\r\n",
      "GET ?only-a-query HTTP/1.1\r\n\r\n",
      // Unknown targets and methods.
      "POST /metrics HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
      "GET / HTTP/1.1\r\n\r\n",
      // Broken request lines: missing version, missing target, no spaces,
      // empty input, a bare space.
      "GET /metrics",
      "GET /metrics\r\n\r\n",
      "GET",
      "",
      " ",
      "  /metrics  HTTP/1.1",
      // Embedded NULs in and around the target.
      "GET /metrics\0 HTTP/1.1\r\n\r\n"s,
      "GET \0/healthz HTTP/1.1\r\n\r\n"s,
      "\0\0\0\0"s,
      // A target that fills the receive buffer.
      "GET /" + std::string(4000, 'a') + " HTTP/1.1\r\n\r\n",
  };
}

}  // namespace repflow::fuzz
