// The observability invocation surface shared by the example drivers
// (aurv_sweep, aurv_cli sweep): flag parsing and lifecycle for the
// heartbeat (`--progress [SECS]`), the end-of-run metrics snapshot
// (`--metrics-out PATH`), the Chrome-trace span stream
// (`--trace-out PATH`) and the embedded HTTP status server
// (`--status-port PORT`, 0 = ephemeral).
//
// None of these can change an artifact byte — heartbeats go to stderr,
// the snapshot and the trace to their own files, the status server only
// reads and answers sockets, and both the trace sink and the server
// degrade soft on failure (PR 7's hard invariant: observation never
// perturbs a deterministic artifact).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "support/json.hpp"
#include "support/jsonl.hpp"
#include "support/parse.hpp"
#include "support/statusd.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace aurv::driver {

namespace telemetry = support::telemetry;

/// The telemetry flags shared by `run`, `search` and `aurv_cli sweep`:
/// `--progress[=secs]` turns on the heartbeat (one JSON line on stderr
/// every N seconds, 0.001 to 1e6; bare flag = 10 s, 0 = off; each line
/// carries the active phase/span name), `--metrics-out PATH` writes the
/// end-of-run metrics snapshot, `--trace-out PATH` streams structured
/// spans as a Chrome Trace Event Format file (load it in Perfetto or
/// chrome://tracing).
struct TelemetryCli {
  double heartbeat_s = 0.0;
  std::string metrics_out;
  std::string trace_out;
  int status_port = -1;  ///< -1 = no server; 0 = ephemeral; else the port

  /// Handles one flag; `true` when it consumed the flag. `--progress`
  /// takes an *optional* value: the next token is consumed only when it
  /// does not look like another flag.
  bool parse(const std::string& flag, int& k, int argc, char** argv) {
    if (flag == "--metrics-out") {
      if (k + 1 >= argc) throw std::invalid_argument("--metrics-out needs a value");
      metrics_out = argv[++k];
      return true;
    }
    if (flag == "--trace-out") {
      if (k + 1 >= argc) throw std::invalid_argument("--trace-out needs a value");
      trace_out = argv[++k];
      return true;
    }
    if (flag == "--progress") {
      heartbeat_s = 10.0;
      if (k + 1 < argc && argv[k + 1][0] != '-')
        heartbeat_s = support::parse_double(argv[++k], "--progress");
      // Below a millisecond the heartbeat would flood stderr; past 1e6 s
      // the interval overflows the steady clock.
      if (heartbeat_s > 0 && (heartbeat_s < 1e-3 || heartbeat_s > 1e6))
        throw std::invalid_argument("--progress: interval out of range (0.001 to 1e6 s; 0 = off)");
      return true;
    }
    if (flag == "--status-port") {
      if (k + 1 >= argc) throw std::invalid_argument("--status-port needs a value");
      const std::uint64_t port = support::parse_uint(argv[++k], "--status-port");
      if (port > 65535) throw std::invalid_argument("--status-port: port out of range");
      status_port = static_cast<int>(port);
      return true;
    }
    return false;
  }

  /// Opens the process-wide trace sink when `--trace-out` was given.
  /// An unopenable path degrades the sink (one stderr warning) — the
  /// run itself proceeds untouched.
  void open_trace() const {
    if (!trace_out.empty()) support::trace::sink().open(trace_out);
  }

  /// Seals the trace file (footer + flush). Call after the last span of
  /// the run has closed and before the metrics snapshot, so the
  /// snapshot's `trace.*` counters are final.
  void close_trace(bool quiet) const {
    if (trace_out.empty()) return;
    const bool healthy = !support::trace::sink().degraded();
    support::trace::sink().close();
    if (!quiet && healthy)
      std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
  }

  [[nodiscard]] std::optional<telemetry::Heartbeat> start_heartbeat(
      const telemetry::RunInfo& run) const {
    if (heartbeat_s <= 0) return std::nullopt;
    telemetry::HeartbeatConfig config;
    config.interval_s = heartbeat_s;
    config.run = run;
    return std::optional<telemetry::Heartbeat>(std::in_place, std::move(config));
  }

  void write_metrics(const telemetry::RunInfo& run, double wall_ms, bool quiet) const {
    if (metrics_out.empty()) return;
    telemetry::metrics_snapshot(run, wall_ms).save_file(metrics_out);
    if (!quiet) std::fprintf(stderr, "metrics written to %s\n", metrics_out.c_str());
  }

  /// Starts the embedded HTTP status server when `--status-port` was
  /// given. Returns nullptr both when the flag is absent and when the
  /// bind fails soft (one stderr warning + `statusd.dropped`) — callers
  /// just hold the handle; destruction stops the server.
  [[nodiscard]] std::unique_ptr<support::statusd::StatusServer> start_statusd(
      const telemetry::RunInfo& run) const {
    if (status_port < 0) return nullptr;
    support::statusd::Config config;
    config.port = status_port;
    config.run = run;
    return support::statusd::StatusServer::start(std::move(config));
  }
};

inline double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

/// The run identity records the *effective* worker count: 0 means
/// "hardware" everywhere in the option structs, which would read as
/// nonsense in a metrics snapshot.
inline std::uint64_t resolved_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// The identity of one driver command's run, built once and shared by
/// the heartbeat, the status server and the metrics snapshot.
inline telemetry::RunInfo run_info(std::string kind, std::string spec,
                                   std::uint64_t fingerprint, std::size_t threads,
                                   support::Json config = support::Json::object()) {
  telemetry::RunInfo run;
  run.kind = std::move(kind);
  run.spec = std::move(spec);
  run.fingerprint = support::fingerprint_hex(fingerprint);
  run.threads = resolved_threads(threads);
  run.config = std::move(config);
  return run;
}

}  // namespace aurv::driver
