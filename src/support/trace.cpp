#include "support/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <optional>

#include "support/jsonl.hpp"

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

/// The sink's own counters, looked up once: `append` runs under the sink
/// mutex and spans open on worker threads, so neither may take the
/// registry lock per event. (The file's SoftJsonlSink owns the
/// `trace.degraded` gauge and ticks the same `trace.dropped`.)
struct SinkMetrics {
  telemetry::Counter& events = telemetry::registry().counter("trace.events");
  telemetry::Counter& dropped = telemetry::registry().counter("trace.dropped");
};

SinkMetrics& sink_metrics() {
  static SinkMetrics metrics;
  return metrics;
}

/// Set while this thread appends to the trace file under the sink mutex:
/// retry_io's "vfs.retry" instant must not re-enter the open sink from
/// there, which would deadlock on that mutex. (Open and close run with the
/// sink disabled, where an instant takes no lock.)
thread_local bool in_sink_io = false;

struct SinkIo {
  SinkIo() { in_sink_io = true; }
  ~SinkIo() { in_sink_io = false; }
};

/// An event that finds the sink closed is a drop only when a trace was
/// requested and its writer failed.
void count_unrecorded(const TraceSink& sink) {
  if (sink.degraded()) sink_metrics().dropped.add();
}

/// One serialized event: a complete event ("ph":"X") when `dur_us` is
/// given, else a process-scoped instant ("ph":"i","s":"p"). `ts`/`dur`
/// in microseconds, `pid` 1, `tid` = lane. `args` optional.
std::string event_line(std::string_view name, std::string_view cat, std::uint64_t ts_us,
                       std::optional<std::uint64_t> dur_us, std::uint32_t lane,
                       const Json* args) {
  Json event = Json::object();
  event.set("name", Json(std::string(name)));
  event.set("cat", Json(std::string(cat)));
  event.set("ph", Json(dur_us ? "X" : "i"));
  if (!dur_us) event.set("s", Json("p"));
  event.set("ts", Json(ts_us));
  if (dur_us) event.set("dur", Json(*dur_us));
  event.set("pid", Json(1));
  event.set("tid", Json(lane));
  if (args != nullptr) event.set("args", *args);
  return event.dump();
}

}  // namespace

struct TraceSink::Impl {
  std::mutex mutex;
  std::atomic<bool> enabled{false};
  /// file->degraded(), published for the lock-free readers (spans).
  std::atomic<bool> degraded{false};
  std::atomic<std::uint64_t> open_ns{0};

  // Everything below is guarded by `mutex`.
  std::optional<SoftJsonlSink> file;  ///< the "trace" stream, fail-soft
  std::string pending;                ///< serialized bytes awaiting a flush
  std::uint64_t pending_events = 0;
  bool first_event = true;
  /// The most recent event lines, at most kRingCapacity (statusd's
  /// /trace source).
  std::deque<std::string> ring;

  /// Publishes the file's health (mutex held): a degraded file stops
  /// collection, and later spans count as `trace.dropped`.
  void publish() {
    const bool failed = file->degraded();
    degraded.store(failed, std::memory_order_relaxed);
    if (failed) enabled.store(false, std::memory_order_relaxed);
  }

  /// Writes `pending` to the file (mutex held); a persistent failure
  /// degrades the file, which counts the pending events as dropped.
  void flush_pending() {
    if (pending.empty()) return;  // no write, so a fault schedule's op count holds
    {
      const SinkIo io;
      file->append(pending, pending_events);
    }
    pending.clear();
    pending_events = 0;
    publish();
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
    ring.push_back(std::move(line));
    if (ring.size() > kRingCapacity) ring.pop_front();
    sink_metrics().events.add();
    if (pending.size() >= kFlushBytes) flush_pending();
  }

  /// Stops collecting, writes the JSON footer, flushes and closes the
  /// file (mutex held). A no-op unless a healthy trace is open.
  void finish() {
    if (!enabled.exchange(false, std::memory_order_relaxed)) return;
    pending += "\n]}\n";
    flush_pending();
    file->close();
    publish();
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
  impl_->finish();  // a previous trace may still be open (multi-spec driver)
  impl_->degraded.store(false, std::memory_order_relaxed);  // the new file's retries drop nothing
  impl_->file.emplace("trace", path);
  impl_->publish();
  if (impl_->file->degraded()) return false;
  impl_->pending = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  impl_->pending_events = 0;
  impl_->first_event = true;
  impl_->ring.clear();
  impl_->open_ns.store(steady_ns(), std::memory_order_relaxed);
  impl_->enabled.store(true, std::memory_order_relaxed);

  impl_->append(R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"aurv"}})");
  return true;
}

void TraceSink::close() {
  std::lock_guard lock(impl_->mutex);
  impl_->finish();
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
  std::vector<std::string> lines = buffer.take();
  if (lines.empty()) return;
  std::lock_guard lock(impl_->mutex);
  for (std::string& line : lines) impl_->append(std::move(line));
}

std::vector<std::string> TraceSink::recent(std::size_t last_n) const {
  std::lock_guard lock(impl_->mutex);
  const std::size_t n = std::min(last_n, impl_->ring.size());
  return {impl_->ring.end() - static_cast<std::ptrdiff_t>(n), impl_->ring.end()};
}

// ------------------------------------------------------------------------
// Instant events and spans
// ------------------------------------------------------------------------

void instant(std::string_view name, std::string_view cat) {
  if (in_sink_io) return;  // a retry inside the sink's own write
  TraceSink& the_sink = sink();
  if (!the_sink.enabled()) {
    count_unrecorded(the_sink);
    return;
  }
  the_sink.emit(event_line(name, cat, the_sink.now_us(), std::nullopt, 0, nullptr));
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
          event_line(name_, cat_, start_us_, end_us > start_us_ ? end_us - start_us_ : 0, lane,
                     args_ ? &*args_ : nullptr);
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
