#include "support/statusd.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

#include "support/parse.hpp"
#include "support/trace.hpp"

namespace aurv::support::statusd {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;  ///< request head cap (400 beyond)

// ----------------------------------------------------------------------
// Prometheus text exposition
// ----------------------------------------------------------------------

/// "aurv_" + name with every '.' and '-' flattened to '_' (the legal
/// Prometheus metric-name alphabet is [a-zA-Z0-9_:]).
std::string prom_name(std::string_view name) {
  std::string out = "aurv_";
  for (const char c : name) out += (c == '.' || c == '-') ? '_' : c;
  return out;
}

/// Label-value escaping per the exposition format: backslash, quote,
/// newline.
std::string escape_label(std::string_view value) {
  std::string out;
  for (const char c : value) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '"')
      out += "\\\"";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

/// Seconds with fixed 9-digit precision — the one float format the C++
/// and Python renderers must agree on byte-for-byte.
std::string seconds_text(double seconds) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9f", seconds);
  return buffer;
}

/// Inclusive upper bound of bit_width bucket `index` as a decimal string:
/// bucket 0 holds only 0, bucket k >= 1 holds [2^(k-1), 2^k) i.e. up to
/// 2^k - 1.
std::string bucket_le(int index) {
  if (index == 0) return "0";
  if (index >= 64) return "18446744073709551615";
  return std::to_string((std::uint64_t{1} << index) - 1);
}

// ----------------------------------------------------------------------
// HTTP plumbing
// ----------------------------------------------------------------------

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

Response json_response(int status, Json body) {
  Response response;
  response.status = status;
  response.content_type = "application/json";
  response.body = body.dump(2);  // pretty dumps end in one newline
  return response;
}

Response error_response(int status, std::string_view message) {
  Json body = Json::object();
  body.set("error", Json(std::string(message)));
  return json_response(status, std::move(body));
}

/// Parses the decimal value of `key` out of `query` ("a=1&b=2"). Returns
/// `fallback` when absent, nullopt on a malformed value.
std::optional<std::uint64_t> query_uint(std::string_view query, std::string_view key,
                                        std::uint64_t fallback) {
  for (std::size_t pos = 0; pos < query.size();) {
    const std::size_t end = std::min(query.find('&', pos), query.size());
    const std::string_view pair = query.substr(pos, end - pos);
    if (pair.starts_with(key) && pair.substr(key.size()).starts_with('=')) {
      try {
        return parse_uint(std::string(pair.substr(key.size() + 1)));
      } catch (const std::invalid_argument&) {
        return std::nullopt;
      }
    }
    pos = end + 1;
  }
  return fallback;
}

}  // namespace

// ----------------------------------------------------------------------
// Renderers
// ----------------------------------------------------------------------

std::string render_prometheus(const telemetry::Registry::Snapshot& snapshot,
                              const telemetry::RunInfo& run, double uptime_s) {
  std::string out;
  out.reserve(4096);

  out += "# TYPE aurv_run_info gauge\n";
  out += "aurv_run_info{kind=\"" + escape_label(run.kind) + "\",spec=\"" +
         escape_label(run.spec) + "\",fingerprint=\"" + escape_label(run.fingerprint) +
         "\",threads=\"" + std::to_string(run.threads) + "\"} 1\n";
  out += "# TYPE aurv_uptime_seconds gauge\n";
  out += "aurv_uptime_seconds " + seconds_text(uptime_s) + "\n";

  for (const auto& [name, value] : snapshot.counters) {
    const std::string metric = prom_name(name) + "_total";
    out += "# TYPE " + metric + " counter\n";
    out += metric + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string metric = prom_name(name);
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.histograms) {
    const std::string metric = prom_name(name);
    out += "# TYPE " + metric + " histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& [index, count] : value.buckets) {
      cumulative += count;
      out += metric + "_bucket{le=\"" + bucket_le(index) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += metric + "_bucket{le=\"+Inf\"} " + std::to_string(value.count) + "\n";
    out += metric + "_sum " + std::to_string(value.sum) + "\n";
    out += metric + "_count " + std::to_string(value.count) + "\n";
  }
  for (const auto& [name, value] : snapshot.timers) {
    const std::string seconds = prom_name(name) + "_seconds_total";
    out += "# TYPE " + seconds + " counter\n";
    out += seconds + " " + seconds_text(static_cast<double>(value.total_ns) / 1e9) + "\n";
    const std::string spans = prom_name(name) + "_spans_total";
    out += "# TYPE " + spans + " counter\n";
    out += spans + " " + std::to_string(value.count) + "\n";
  }
  return out;
}

Response handle_request(std::string_view method, std::string_view target,
                        const telemetry::RunInfo& run, double uptime_s) {
  telemetry::registry().counter("statusd.requests").add();
  if (method != "GET") return error_response(405, "method not allowed (GET only)");

  std::string_view path = target;
  std::string_view query;
  if (const std::size_t mark = target.find('?'); mark != std::string_view::npos) {
    path = target.substr(0, mark);
    query = target.substr(mark + 1);
  }

  if (path == "/metrics") {
    Response response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body =
        render_prometheus(telemetry::registry().read_snapshot(), run, uptime_s);
    return response;
  }
  if (path == "/status") {
    return json_response(
        200, telemetry::live_view(run, uptime_s, telemetry::registry().read_snapshot()));
  }
  if (path == "/healthz") {
    Json detail = telemetry::degradations(telemetry::registry().read_snapshot());
    if (detail.as_array().empty()) {
      Response response;
      response.body = "ok\n";
      return response;
    }
    Json body = Json::object();
    body.set("degraded", std::move(detail));
    return json_response(503, std::move(body));
  }
  if (path == "/trace") {
    if (!trace::sink().enabled())
      return error_response(404, "tracing not active (run with --trace-out)");
    const std::optional<std::uint64_t> last = query_uint(query, "last", 32);
    if (!last) return error_response(400, "malformed last=N");
    // Ring lines are serialized events already: splice them in as is.
    Response response;
    response.content_type = "application/json";
    response.body = "{\"spans\":[";
    const char* separator = "\n";
    for (const std::string& line : trace::sink().recent(*last)) {
      response.body += separator + line;
      separator = ",\n";
    }
    response.body += "\n]}\n";
    return response;
  }
  Json body = Json::object();
  body.set("error", Json("not found"));
  Json endpoints = Json::array();
  for (const char* endpoint : {"/metrics", "/status", "/healthz", "/trace?last=N"})
    endpoints.push_back(Json(endpoint));
  body.set("endpoints", std::move(endpoints));
  return json_response(404, std::move(body));
}

// ----------------------------------------------------------------------
// Server
// ----------------------------------------------------------------------

struct StatusServer::Impl {
  Config config;
  int listen_fd = -1;
  int port = 0;
  std::chrono::steady_clock::time_point started;
  std::atomic<bool> stopping{false};
  std::thread thread;  ///< last concern torn down: stop() joins before close

  ~Impl() {
    stopping.store(true, std::memory_order_relaxed);
    if (thread.joinable()) thread.join();
    if (listen_fd >= 0) ::close(listen_fd);
  }

  void run() {
    while (!stopping.load(std::memory_order_relaxed)) {
      pollfd waiter{};
      waiter.fd = listen_fd;
      waiter.events = POLLIN;
      // A short tick keeps stop() prompt without any wakeup machinery.
      const int ready = ::poll(&waiter, 1, 200);
      if (ready <= 0) continue;
      const int connection = ::accept(listen_fd, nullptr, nullptr);
      if (connection < 0) continue;
      serve(connection);
      ::close(connection);
    }
  }

  /// Handles one connection start to finish (the connection bound: no
  /// concurrent request handling on a diagnostics endpoint).
  void serve(int fd) {
    set_timeout(fd, SO_RCVTIMEO, config.timeout_ms);
    set_timeout(fd, SO_SNDTIMEO, config.timeout_ms);

    std::string request;
    while (request.find("\r\n\r\n") == std::string::npos) {
      if (request.size() >= kMaxRequestBytes) {
        send_response(fd, error_response(400, "request too large"));
        return;
      }
      char buffer[2048];
      const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
      if (got <= 0) return;  // timeout, reset or premature close: drop silently
      request.append(buffer, static_cast<std::size_t>(got));
    }

    const std::size_t line_end = request.find("\r\n");
    const std::string_view line = std::string_view(request).substr(0, line_end);
    const std::size_t method_end = line.find(' ');
    const std::size_t target_end =
        method_end == std::string_view::npos ? std::string_view::npos
                                             : line.find(' ', method_end + 1);
    if (method_end == std::string_view::npos || target_end == std::string_view::npos ||
        !line.substr(target_end + 1).starts_with("HTTP/1.")) {
      send_response(fd, error_response(400, "malformed request line"));
      return;
    }
    const std::string_view method = line.substr(0, method_end);
    const std::string_view target =
        line.substr(method_end + 1, target_end - method_end - 1);
    const double uptime_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    send_response(fd, handle_request(method, target, config.run, uptime_s));
  }

  static void set_timeout(int fd, int option, int timeout_ms) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<decltype(tv.tv_usec)>((timeout_ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
  }

  static void send_response(int fd, const Response& response) {
    std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                       reason_phrase(response.status) +
                       "\r\nContent-Type: " + response.content_type +
                       "\r\nContent-Length: " + std::to_string(response.body.size()) +
                       "\r\nConnection: close\r\n\r\n";
    send_all(fd, head + response.body);
  }

  static void send_all(int fd, std::string_view data) {
    while (!data.empty()) {
      const ssize_t sent = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
      if (sent <= 0) return;  // write timeout or reset: the scraper's loss
      data.remove_prefix(static_cast<std::size_t>(sent));
    }
  }
};

StatusServer::StatusServer() : impl_(std::make_unique<Impl>()) {}

StatusServer::~StatusServer() = default;

int StatusServer::port() const noexcept { return impl_->port; }

std::unique_ptr<StatusServer> StatusServer::start(Config config) {
  const auto fail_soft = [&config](const char* what) -> std::unique_ptr<StatusServer> {
    telemetry::registry().counter("statusd.dropped").add();
    std::fprintf(stderr, "aurv: statusd: %s for %s:%d (%s); status server disabled\n",
                 what, config.bind_address.c_str(), config.port, std::strerror(errno));
    return nullptr;
  };

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(config.port));
  if (::inet_pton(AF_INET, config.bind_address.c_str(), &address.sin_addr) != 1) {
    errno = EINVAL;
    return fail_soft("bad bind address");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail_soft("cannot create socket");
  const auto close_and_fail = [&](const char* what) {
    const int saved = errno;  // ::close may clobber the cause
    ::close(fd);
    errno = saved;
    return fail_soft(what);
  };
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0 ||
      ::listen(fd, 8) != 0) {
    return close_and_fail("cannot bind");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    return close_and_fail("cannot read bound port");
  }

  auto server = std::unique_ptr<StatusServer>(new StatusServer());
  server->impl_->config = std::move(config);
  server->impl_->listen_fd = fd;
  server->impl_->port = static_cast<int>(ntohs(bound.sin_port));
  server->impl_->started = std::chrono::steady_clock::now();
  // The one announce line: machine-parseable, so a harness scraping an
  // ephemeral port can find it. stderr, never an artifact stream.
  std::fprintf(stderr, "{\"statusd\":{\"port\":%d}}\n", server->impl_->port);
  std::fflush(stderr);
  server->impl_->thread = std::thread([impl = server->impl_.get()] { impl->run(); });
  return server;
}

}  // namespace aurv::support::statusd
