// The invocation surface shared by aurv_sweep's commands: the observability
// flags — the heartbeat (`--progress [SECS]`), the end-of-run metrics
// snapshot (`--metrics-out PATH`), the Chrome-trace span stream
// (`--trace-out PATH`) and the embedded HTTP status server
// (`--status-port PORT`, 0 = ephemeral) — and the one observed lifecycle
// every command runs through (ObservedRun).
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

/// The telemetry flags shared by `run` and `search`: `--progress[=secs]`
/// turns on the heartbeat (one JSON line on stderr every N seconds, 0.001
/// to 1e6; bare flag = 10 s, 0 = off; each line carries the active
/// phase/span name), `--metrics-out PATH` writes the end-of-run metrics
/// snapshot, `--trace-out PATH` streams structured spans as a Chrome Trace
/// Event Format file (load it in Perfetto or chrome://tracing).
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
};

/// What every command is invoked with besides its own options: the spec,
/// where the artifact goes, `--quiet` and the telemetry flags. `started`
/// is the command's start, the origin of the snapshot's `wall_ms`.
struct Invocation {
  std::chrono::steady_clock::time_point started = std::chrono::steady_clock::now();
  std::string spec_path;
  std::string out_path;  ///< "" = the artifact goes to stdout
  bool quiet = false;
  TelemetryCli telemetry;
};

/// The run identity records the *effective* worker count: 0 means
/// "hardware" everywhere in the option structs, which would read as
/// nonsense in a metrics snapshot.
inline std::uint64_t resolved_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// One command's observed lifecycle. Construction opens the trace sink
/// (an unopenable path degrades it with one stderr warning; the run
/// proceeds untouched), `load` times the spec load as the `load` phase,
/// and `finish` does the rest, in order: heartbeat and status server
/// under the run's identity, the `run` phase, heartbeat stop, the stderr
/// report, the `emit` phase, trace close and the metrics snapshot.
class ObservedRun {
 public:
  explicit ObservedRun(const Invocation& cli) : cli_(cli) {
    if (!cli_.telemetry.trace_out.empty()) support::trace::sink().open(cli_.telemetry.trace_out);
  }

  template <typename Load>
  auto load(Load&& fn) const {
    const Span span(load_timer_, "load", "phase", {.announce = true});
    return fn();
  }

  /// Runs `spec` as `run(spec)`; `report(result)` writes the stderr lines
  /// and says whether the run reached its end, and `artifact(spec,
  /// result)` is written to `out_path` (stdout when empty). `threads` and
  /// `config` complete the run identity that the heartbeat, the status
  /// server and the snapshot share. Returns the exit code: 0, or 4 when
  /// the run stopped early.
  template <typename Spec, typename Run, typename Report, typename Artifact>
  int finish(const Spec& spec, std::size_t threads, support::Json config, Run&& run,
             Report&& report, const char* artifact_name, Artifact&& artifact) const {
    const TelemetryCli& flags = cli_.telemetry;
    telemetry::RunInfo identity;
    identity.kind = Spec::kKind;
    identity.spec = cli_.spec_path;
    identity.fingerprint = support::fingerprint_hex(spec.fingerprint());
    identity.threads = resolved_threads(threads);
    identity.config = std::move(config);
    // An interval of 0 starts no thread.
    telemetry::Heartbeat heartbeat({.interval_s = flags.heartbeat_s, .run = identity});
    // Held to the end: scraping stays live through emit and metrics. A
    // failed bind degrades soft (one stderr warning, `statusd.dropped`).
    std::unique_ptr<support::statusd::StatusServer> statusd;
    if (flags.status_port >= 0)
      statusd = support::statusd::StatusServer::start({.port = flags.status_port, .run = identity});

    const auto result = [&] {
      const Span span(run_timer_, "run", "phase", {.announce = true});
      return run(spec);
    }();
    heartbeat.stop();
    const bool complete = report(result);
    {
      const Span span(emit_timer_, "emit", "phase", {.announce = true});
      const support::Json json = artifact(spec, result);
      if (cli_.out_path.empty()) {
        std::printf("%s", json.dump(2).c_str());
      } else {
        json.save_file(cli_.out_path);
        if (!cli_.quiet)
          std::fprintf(stderr, "%s written to %s\n", artifact_name, cli_.out_path.c_str());
      }
    }
    // Seal the trace before the snapshot so its trace.* counters are final.
    if (!flags.trace_out.empty()) {
      const bool healthy = !support::trace::sink().degraded();
      support::trace::sink().close();
      if (!cli_.quiet && healthy)
        std::fprintf(stderr, "trace written to %s\n", flags.trace_out.c_str());
    }
    if (!flags.metrics_out.empty()) {
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - cli_.started)
                                 .count();
      telemetry::metrics_snapshot(identity, wall_ms).save_file(flags.metrics_out);
      if (!cli_.quiet) std::fprintf(stderr, "metrics written to %s\n", flags.metrics_out.c_str());
    }
    return complete ? 0 : 4;
  }

 private:
  using Span = support::trace::Span;
  const Invocation& cli_;
  telemetry::Timer& load_timer_ = telemetry::registry().timer("phase.load");
  telemetry::Timer& run_timer_ = telemetry::registry().timer("phase.run");
  telemetry::Timer& emit_timer_ = telemetry::registry().timer("phase.emit");
};

}  // namespace aurv::driver
