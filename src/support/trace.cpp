#include "support/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "support/vfs.hpp"

namespace aurv::support::trace {

namespace {

constexpr std::size_t kFlushBytes = 256 * 1024;
constexpr std::size_t kRingCapacity = 1024;  ///< recent-event lines kept for /trace

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The sink's own metrics, looked up once: `append` runs under the sink
/// mutex and spans open on worker threads, so neither may take the
/// registry lock per event.
struct SinkMetrics {
  telemetry::Counter& events = telemetry::registry().counter("trace.events");
  telemetry::Counter& dropped = telemetry::registry().counter("trace.dropped");
  telemetry::Counter& retries = telemetry::registry().counter("trace.retries");
  telemetry::Counter& backoff_ms = telemetry::registry().counter("trace.backoff_ms");
  telemetry::Gauge& degraded = telemetry::registry().gauge("trace.degraded");
};

SinkMetrics& sink_metrics() {
  static SinkMetrics metrics;
  return metrics;
}

/// An event that finds the sink closed is a drop only when a trace was
/// requested and its writer failed.
void count_unrecorded(const TraceSink& sink) {
  if (sink.degraded()) sink_metrics().dropped.add();
}

/// One serialized complete event ("ph":"X"): `ts`/`dur` in microseconds,
/// `pid` 1, `tid` = lane. `args` optional.
std::string complete_event(std::string_view name, std::string_view cat,
                           std::uint64_t ts_us, std::uint64_t dur_us, std::uint32_t lane,
                           const Json* args) {
  Json event = Json::object();
  event.set("name", Json(std::string(name)));
  event.set("cat", Json(std::string(cat)));
  event.set("ph", Json("X"));
  event.set("ts", Json(ts_us));
  event.set("dur", Json(dur_us));
  event.set("pid", Json(1));
  event.set("tid", Json(lane));
  if (args != nullptr) event.set("args", *args);
  return event.dump();
}

}  // namespace

struct TraceSink::Impl {
  std::mutex mutex;
  std::atomic<bool> enabled{false};
  std::atomic<bool> degraded{false};
  std::atomic<std::uint64_t> open_ns{0};

  // Everything below is guarded by `mutex`.
  std::unique_ptr<VfsFile> file;
  std::string path;
  std::string pending;           ///< serialized bytes awaiting a flush
  std::uint64_t pending_events = 0;
  std::uint64_t durable_bytes = 0;  ///< bytes known to be on disk (torn-write rewind point)
  bool first_event = true;
  RetryPolicy retry;
  /// Bounded ring of the most recent event lines (statusd's /trace
  /// source). `ring` grows to kRingCapacity then wraps at `ring_next`.
  std::vector<std::string> ring;
  std::size_t ring_next = 0;

  /// Appends `data` to the file with bounded deterministic retry,
  /// rewinding any torn prefix before each attempt. Returns false on a
  /// persistent failure (caller degrades). Deliberately hand-rolled
  /// instead of retry_io: retry_io emits a trace instant, and re-entering
  /// this sink from its own write path would deadlock.
  bool write_all(const std::string& data) {
    for (int attempt = 1;; ++attempt) {
      try {
        file->write(data);
        durable_bytes += data.size();
        return true;
      } catch (const VfsError& error) {
        try {
          file->truncate_to(durable_bytes);
        } catch (const VfsError&) {
          // Rewind failed too; the file may keep a torn tail. It is a
          // diagnostic stream, so this only costs viewer-loadability.
        }
        if (!error.transient() || attempt >= retry.attempts) return false;
        const std::uint64_t backoff = retry.backoff_ms << (attempt - 1);
        sink_metrics().retries.add();
        sink_metrics().backoff_ms.add(backoff);
        vfs().sleep_for_ms(backoff);
      }
    }
  }

  /// Flushes `pending` to disk; on persistent failure degrades the sink
  /// (mutex held). Returns whether the sink is still healthy.
  bool flush_pending() {
    if (pending.empty()) return true;
    if (!write_all(pending)) {
      degrade("write failed: " + path);
      return false;
    }
    pending.clear();
    pending_events = 0;
    return true;
  }

  /// Turns the sink into a counting no-op: pending events are dropped
  /// and counted, later spans tick `trace.dropped` instead of recording.
  void degrade(const std::string& reason) {
    enabled.store(false, std::memory_order_relaxed);
    degraded.store(true, std::memory_order_relaxed);
    sink_metrics().degraded.set(1);
    if (pending_events > 0) sink_metrics().dropped.add(pending_events);
    pending.clear();
    pending_events = 0;
    file.reset();  // closes silently; a partial trace file is left for triage
    std::fprintf(stderr, "aurv: trace: %s; tracing disabled, events dropped\n",
                 reason.c_str());
  }

  void append(std::string line) {
    if (!enabled.load(std::memory_order_relaxed)) {
      if (degraded.load(std::memory_order_relaxed)) sink_metrics().dropped.add();
      return;
    }
    if (!first_event) pending += ",\n";
    first_event = false;
    pending += line;
    ++pending_events;
    if (ring.size() < kRingCapacity) {
      ring.push_back(std::move(line));
    } else {
      ring[ring_next] = std::move(line);
      ring_next = (ring_next + 1) % kRingCapacity;
    }
    sink_metrics().events.add();
    if (pending.size() >= kFlushBytes) flush_pending();
  }
};

TraceSink::TraceSink() : impl_(new Impl()) {}

TraceSink& TraceSink::instance() {
  static TraceSink* the_sink = new TraceSink();  // never destroyed: spans may
                                                 // outlive every exit path
  return *the_sink;
}

bool TraceSink::open(const std::string& path) {
  std::lock_guard lock(impl_->mutex);
  if (impl_->file) {
    // A previous trace is still open (multi-spec driver): finish it first.
    impl_->pending += "\n]}\n";
    impl_->flush_pending();
    if (impl_->file) {
      try {
        impl_->file->close();
      } catch (const VfsError&) {
      }
      impl_->file.reset();
    }
  }
  impl_->enabled.store(false, std::memory_order_relaxed);
  impl_->degraded.store(false, std::memory_order_relaxed);
  sink_metrics().degraded.set(0);
  try {
    impl_->file = vfs().open_write(path, Vfs::OpenMode::Truncate);
  } catch (const VfsError& error) {
    impl_->file.reset();
    impl_->degraded.store(true, std::memory_order_relaxed);
    sink_metrics().degraded.set(1);
    std::fprintf(stderr, "aurv: trace: cannot open %s (%s); tracing disabled\n",
                 path.c_str(), error.reason().c_str());
    return false;
  }
  impl_->path = path;
  impl_->pending = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  impl_->pending_events = 0;
  impl_->durable_bytes = 0;
  impl_->first_event = true;
  impl_->ring.clear();
  impl_->ring_next = 0;
  impl_->open_ns.store(steady_ns(), std::memory_order_relaxed);
  impl_->enabled.store(true, std::memory_order_relaxed);

  impl_->append(R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"aurv"}})");
  return true;
}

void TraceSink::close() {
  std::lock_guard lock(impl_->mutex);
  if (!impl_->file) return;
  impl_->enabled.store(false, std::memory_order_relaxed);
  impl_->pending += "\n]}\n";
  if (!impl_->flush_pending()) return;  // degrade() already dropped the file
  try {
    impl_->file->close();
  } catch (const VfsError& error) {
    std::fprintf(stderr, "aurv: trace: close failed for %s (%s)\n", impl_->path.c_str(),
                 error.reason().c_str());
  }
  impl_->file.reset();
}

bool TraceSink::enabled() const noexcept {
  return impl_->enabled.load(std::memory_order_relaxed);
}

bool TraceSink::degraded() const noexcept {
  return impl_->degraded.load(std::memory_order_relaxed);
}

std::uint64_t TraceSink::now_us() const noexcept {
  const std::uint64_t open_ns = impl_->open_ns.load(std::memory_order_relaxed);
  const std::uint64_t now = steady_ns();
  return now > open_ns ? (now - open_ns) / 1000 : 0;
}

void TraceSink::emit(std::string line) {
  std::lock_guard lock(impl_->mutex);
  impl_->append(std::move(line));
}

void TraceSink::merge(TraceBuffer& buffer) {
  const std::vector<std::string> lines = buffer.take();
  if (lines.empty()) return;
  std::lock_guard lock(impl_->mutex);
  for (const std::string& line : lines) impl_->append(line);
}

std::vector<std::string> TraceSink::recent(std::size_t last_n) const {
  std::lock_guard lock(impl_->mutex);
  const std::size_t stored = impl_->ring.size();
  const std::size_t n = std::min(last_n, stored);
  std::vector<std::string> out;
  out.reserve(n);
  // Once the ring has wrapped (stored == capacity) the oldest line sits at
  // ring_next; before that it is index 0.
  const std::size_t oldest = stored == kRingCapacity ? impl_->ring_next : 0;
  for (std::size_t k = 0; k < n; ++k)
    out.push_back(impl_->ring[(oldest + (stored - n) + k) % stored]);
  return out;
}

// ------------------------------------------------------------------------
// Instant events and spans
// ------------------------------------------------------------------------

void instant(std::string_view name, std::string_view cat) {
  TraceSink& the_sink = sink();
  if (!the_sink.enabled()) {
    count_unrecorded(the_sink);
    return;
  }
  Json event = Json::object();
  event.set("name", Json(std::string(name)));
  event.set("cat", Json(std::string(cat)));
  event.set("ph", Json("i"));
  event.set("s", Json("p"));
  event.set("ts", Json(the_sink.now_us()));
  event.set("pid", Json(1));
  event.set("tid", Json(0));
  the_sink.emit(event.dump());
}

Span::Span(telemetry::Timer& timer, std::string_view name, std::string_view cat,
           Options options)
    : timer_(timer), name_(name), cat_(cat), options_(options) {
  if (options_.announce) activity_token_ = telemetry::activity().push(std::string(name_));
  TraceSink& the_sink = sink();
  armed_ = the_sink.enabled();
  if (armed_) {
    start_us_ = the_sink.now_us();
  } else {
    count_unrecorded(the_sink);
  }
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  timer_.add_ns(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start_)
          .count()));
  try {
    if (armed_) {
      const std::uint64_t end_us = sink().now_us();
      const std::uint32_t lane = options_.buffer != nullptr ? options_.buffer->lane() : 0;
      std::string line =
          complete_event(name_, cat_, start_us_, end_us > start_us_ ? end_us - start_us_ : 0,
                         lane, args_ ? &*args_ : nullptr);
      if (options_.buffer != nullptr) {
        options_.buffer->add(std::move(line));
      } else {
        sink().emit(std::move(line));
      }
    }
  } catch (...) {
    // A span destructor must never throw (it runs during unwinding); any
    // failure here is the trace layer's to absorb, not the run's.
  }
  if (options_.announce) telemetry::activity().pop(activity_token_);
}

}  // namespace aurv::support::trace
