// `Span`, the one instrumentation primitive, and the process-wide trace
// sink it writes to: Chrome Trace Event Format JSON (loadable in Perfetto
// / chrome://tracing), opened by the drivers' `--trace-out PATH` flag.
//
// A Span always adds its wall time to the telemetry Timer its site
// caches; with `announce` it is the live view's `phase` while open; and
// whenever the sink is open it emits one complete trace event.
//
// The same hard invariant as the rest of the telemetry layer: tracing
// NEVER touches a deterministic artifact, and it NEVER fails a run. The
// sink appends through a support::JsonlSink (jsonl.hpp: torn-write rewind,
// bounded retry counted in `vfs.retries`) on the support::vfs() seam, so
// fault-injection tests can script its disk dying; on any persistent write
// failure it degrades to a counting no-op — `trace.dropped` ticks, the
// `trace.degraded` gauge reads 1 (so /healthz reports it), one warning
// lands on stderr, the run continues untouched.
//
// Two emission paths, mirroring the telemetry counter discipline:
//   * serialized contexts (CLI phases, wave loop, checkpoint writes,
//     spill merges) emit straight to the sink;
//   * sharded work stages its events in a shard-local `TraceBuffer`
//     (`Options::buffer`; plain vector, no locks on the hot path), which
//     the runner's *in-order* completion hook folds into the sink — so
//     the event order of a trace file is shard-deterministic even though
//     the timestamps are not.
//
// Include-cycle note: this header includes only json.hpp + telemetry.hpp;
// all vfs interaction lives behind the TraceSink pimpl in trace.cpp. That
// lets vfs.hpp / jsonl.hpp / spill.hpp include *this* header to emit
// retry/merge events without a cycle.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/json.hpp"
#include "support/telemetry.hpp"

namespace aurv::support::trace {

class TraceBuffer;

/// The process-wide trace sink. `open` arms it; every API is no-throw
/// with respect to I/O failure (VfsError degrades the sink instead).
class TraceSink {
 public:
  [[nodiscard]] static TraceSink& instance();

  /// Opens `path` (truncating) and writes the stream header. Returns
  /// false — after a stderr warning — when the file cannot be opened;
  /// the run proceeds untraced, with `trace.dropped` counting the spans
  /// that would have been emitted.
  bool open(const std::string& path);

  /// Flushes buffered events, writes the JSON footer and closes the
  /// file. Idempotent; called by the drivers at end of run.
  void close();

  /// Whether events are currently being collected.
  [[nodiscard]] bool enabled() const noexcept;
  /// Whether a trace was requested but the writer has failed (events are
  /// being counted into `trace.dropped` instead of written). Mirrored in
  /// the `trace.degraded` gauge.
  [[nodiscard]] bool degraded() const noexcept;

  /// Microseconds since open() — the `ts` clock of every event.
  [[nodiscard]] std::uint64_t now_us() const noexcept;

  /// Appends one serialized event line (thread-safe; buffered, flushed in
  /// ~256 KiB batches). Dropped (and counted) when the sink is not open.
  void emit(std::string line);

  /// Folds a shard-local buffer's events into the sink, in the buffer's
  /// order, and empties the buffer. Call from the in-order completion
  /// hook so event order is shard-deterministic.
  void merge(TraceBuffer& buffer);

  /// The most recent `last_n` recorded event lines (oldest first), from
  /// the last 1,024 the sink keeps in memory alongside the file — the
  /// statusd `/trace?last=N` source. open() clears them. Thread-safe.
  [[nodiscard]] std::vector<std::string> recent(std::size_t last_n) const;

 private:
  TraceSink();
  struct Impl;
  Impl* impl_;  ///< leaked with the singleton, like the metric registry
};

/// Shorthand for TraceSink::instance().
[[nodiscard]] inline TraceSink& sink() { return TraceSink::instance(); }

/// Shard-local event staging: spans append serialized lines here with no
/// locking; the runner merges buffers in shard order. `lane` becomes the
/// events' `tid`, giving each shard its own track in the viewer.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::uint32_t lane = 0) : lane_(lane) {}

  [[nodiscard]] std::uint32_t lane() const noexcept { return lane_; }
  [[nodiscard]] bool empty() const noexcept { return lines_.empty(); }
  void add(std::string line) { lines_.push_back(std::move(line)); }
  [[nodiscard]] std::vector<std::string> take() { return std::move(lines_); }

 private:
  std::uint32_t lane_;
  std::vector<std::string> lines_;
};

/// Emits a zero-duration instant event ("ph":"i") straight to the sink,
/// e.g. a vfs retry firing inside a span. No-op when the sink is not
/// collecting, or when the retry is the sink's own (its file I/O runs
/// under the sink lock).
void instant(std::string_view name, std::string_view cat);

/// What a Span does beyond timing (see Span).
struct SpanOptions {
  bool announce = false;          ///< surface as the live view's "phase"
  TraceBuffer* buffer = nullptr;  ///< stage shard-locally instead of emitting
};

/// RAII instrumented region, from construction to destruction:
///   * always adds its wall time (and one span) to `timer` — the caller's
///     cached registry reference, so no registry lookup happens per span;
///   * with `announce`, pushes `name` onto the telemetry ActivityStack,
///     making it the live view's `phase` while open;
///   * when the trace sink is open, emits one complete event — into
///     `buffer` when given (shard-local path), else straight to the sink.
/// `name` and `cat` are not copied: pass string literals. Never throws
/// from the destructor.
class Span {
 public:
  using Options = SpanOptions;

  Span(telemetry::Timer& timer, std::string_view name, std::string_view cat,
       Options options = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches an args object to the completed event (kept only when the
  /// span is actually recording).
  void set_args(Json args) {
    if (armed_) args_ = std::move(args);
  }

  [[nodiscard]] bool armed() const noexcept { return armed_; }

 private:
  telemetry::Timer& timer_;
  std::string_view name_;
  std::string_view cat_;
  Options options_;
  std::optional<Json> args_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t activity_token_ = 0;
  std::uint64_t start_us_ = 0;
  bool armed_ = false;
};

}  // namespace aurv::support::trace
