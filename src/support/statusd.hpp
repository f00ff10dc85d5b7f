// Embedded HTTP status server: live introspection of a running driver
// over plain HTTP/1.1 on the loopback address only (`--status-port PORT`
// on aurv_sweep run and search; 0 asks the kernel for an ephemeral port,
// announced as one JSON line on stderr). Four GET endpoints:
//
//   /metrics   Prometheus text exposition (format 0.0.4) rendered from a
//              live telemetry::Registry snapshot + run-identity labels
//   /status    telemetry::live_view — run identity, elapsed seconds, the
//              active phase, every counter and gauge, the degradations —
//              the same fields as a heartbeat line minus "heartbeat" and
//              "rates"
//   /healthz   200 "ok" / 503 naming every nonzero `*.degraded` gauge
//              (the fail-soft trace and provenance streams, the spill
//              frontier)
//   /trace     tail of the in-memory span ring (?last=N) when a
//              --trace-out stream is active
//
// The same hard invariant as the rest of the observability layer: the
// server NEVER touches a deterministic artifact and NEVER fails a run.
// Every handler only *reads* — a registry snapshot, the activity stack
// and the trace ring — and writes to a socket. A port that cannot be
// bound degrades soft: one stderr warning, a tick of
// `statusd.dropped`, and the run proceeds unobserved. Certificates,
// JSONL streams and checkpoints are byte-identical with the server on or
// off, under concurrent scraping, at any worker count —
// tests/statusd_test.cpp enforces exactly that.
//
// Transport: a blocking accept loop on one dedicated thread (poll() with
// a short tick so stop() is prompt), connections served one at a time
// (the natural connection bound for a diagnostics endpoint), per-socket
// read/write timeouts so a stalled scraper cannot wedge the server,
// GET-only, `Connection: close`, requests capped at 8 KiB.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "support/json.hpp"
#include "support/telemetry.hpp"

namespace aurv::support::statusd {

/// The server always binds the loopback address 127.0.0.1: this is a
/// diagnostics endpoint, not a service.
struct Config {
  /// TCP port to bind; 0 = ephemeral (kernel-chosen, reported by port()
  /// and the stderr announce line).
  int port = 0;
  int timeout_ms = 2000;  ///< per-connection receive and per-send deadline
  telemetry::RunInfo run;
};

/// One rendered HTTP response (status + body), exposed so unit tests can
/// drive the router without sockets.
struct Response {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Renders a registry snapshot as Prometheus text exposition format
/// 0.0.4. Deterministic given the snapshot: `aurv_` prefix, dots and
/// dashes to underscores, counters as `_total`, gauges plain, log2
/// histograms as cumulative `_bucket{le="2 floor - 1"}`/`_sum`/`_count`
/// (Log2Histogram::floor; the zero bucket's `le` is 0),
/// timers as `_seconds_total` (%.9f) + `_spans_total`, preceded by
/// `aurv_run_info{...} 1` and `aurv_uptime_seconds`.
/// `scripts/metrics_report.py prom` renders the identical format from an
/// offline snapshot file — keep the two in lockstep
/// (`StatusdPrometheus.MatchesTheOfflineRenderer` byte-compares them).
[[nodiscard]] std::string render_prometheus(const telemetry::Registry::Snapshot& snapshot,
                                            const telemetry::RunInfo& run, double uptime_s);

/// Routes one parsed request to an endpoint response and ticks
/// `statusd.requests`. `target` is the raw request target (path +
/// optional ?query). Exposed for unit tests.
[[nodiscard]] Response handle_request(std::string_view method, std::string_view target,
                                      const telemetry::RunInfo& run, double uptime_s);

/// The embedded status server. start() binds, announces the chosen port
/// as one stderr JSON line ({"statusd":{"port":N}}) and spawns the
/// accept-loop thread; destruction stops the loop and joins. On any
/// bind/listen failure start() returns nullptr after one stderr warning
/// and a `statusd.dropped` tick — callers treat that as "run
/// unobserved", never as an error.
class StatusServer {
 public:
  [[nodiscard]] static std::unique_ptr<StatusServer> start(Config config);
  ~StatusServer();
  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  /// The bound port (the kernel's choice when Config::port was 0).
  [[nodiscard]] int port() const noexcept;

 private:
  StatusServer();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace aurv::support::statusd
