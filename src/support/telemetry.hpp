// Run telemetry: process-wide named counters, gauges, log2 histograms and
// wall-clock timers, the activity stack behind the `phase` field, the one
// live view of a run (rendered by both the heartbeat and statusd's
// /status), and a versioned end-of-run metrics snapshot. Timed, announced
// and traced regions are all `trace::Span`s (support/trace.hpp), which add
// their wall time to a Timer from this registry.
//
// The hard invariant the whole layer is built around: telemetry NEVER
// touches a deterministic artifact. Certificates, JSONL streams,
// checkpoints and summaries are byte-identical with telemetry on, off, or
// at any heartbeat interval; wall-clock values may only ever appear in
// the metrics sink (`metrics_snapshot`) and on stderr (the heartbeat).
// tests/telemetry_determinism_test.cpp enforces exactly that.
//
// Determinism of the numbers themselves:
//   * counters/gauges/histograms hold integers updated with relaxed
//     atomics — integer sums commute, so end-of-run totals are identical
//     at any thread count;
//   * per-shard work is accumulated in a thread-local ShardAccumulator
//     (plain integers, no atomics on the hot path) and merged into the
//     registry by the runner's *in-order* completion hook — the same
//     shard-ordered merge discipline the aggregates use, so even the
//     intermediate counter sequence is deterministic;
//   * timers are wall-clock and therefore the one deliberately
//     nondeterministic family; they are confined to the metrics sink.
//
// Metric objects are registered on first use and never deallocated, so a
// `static auto& c = telemetry::registry().counter("x")` at a call site
// pays the registry lock exactly once. `Registry::reset()` zeroes values
// in place (references stay valid) — for tests and for drivers that run
// several specs in one process.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace aurv::support::telemetry {

/// Monotonic event count. Totals are thread-count-invariant (relaxed
/// integer adds commute).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written level (frontier depth, jobs total, degradation state).
/// Writers must be serialized (e.g. the in-order completion hook) for the
/// sequence of values to be deterministic; the final value then is too.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if above the current value (high-water marks).
  void set_max(std::int64_t v) noexcept {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::atomic<std::int64_t> value_{0};
};

/// Power-of-two bucketed distribution of nonnegative integer samples
/// (event counts, byte sizes). Bucket k holds samples in [2^(k-1), 2^k)
/// — i.e. bucket index = std::bit_width(sample) — with bucket 0 reserved
/// for zero. Integer counts: totals are thread-count-invariant.
class Log2Histogram {
 public:
  void record(std::uint64_t sample) noexcept {
    buckets_[std::bit_width(sample)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(int index) const noexcept {
    return buckets_[static_cast<std::size_t>(index)].load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::array<std::atomic<std::uint64_t>, 65> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Accumulated wall-clock time. The one nondeterministic metric family:
/// values go to the metrics sink and stderr only, never into artifacts.
class Timer {
 public:
  void add_ns(std::uint64_t ns) noexcept {
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return total_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Thread-local (well, shard-local) counter deltas: plain integers on the
/// hot path, folded into the registry by the runner's in-order completion
/// hook — so the merge sequence, like every aggregate merge, happens in
/// deterministic shard order.
class ShardAccumulator {
 public:
  void add(std::string_view name, std::uint64_t n = 1) {
    for (auto& [key, value] : entries_) {
      if (key == name) {
        value += n;
        return;
      }
    }
    entries_.emplace_back(std::string(name), n);
  }
  [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>& entries()
      const noexcept {
    return entries_;
  }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

 private:
  std::vector<std::pair<std::string, std::uint64_t>> entries_;  ///< first-touch order
};

/// The process-wide metric registry. Lookup registers on first use;
/// objects live for the process lifetime, so cached references never
/// dangle. Snapshots render every family with name-sorted keys.
///
/// Snapshot thread-safety: `read_snapshot()` is the one snapshot
/// implementation (the JSON `snapshot()`, the live view and /metrics are
/// renderings of it) and is safe to call concurrently from any number of
/// threads — the heartbeat thread and every statusd scrape share it.
/// After the first call following a registration, readers take no lock
/// at all: they load a cached immutable name→object index (rebuilt under
/// the mutex only when the registration generation changed, published
/// via an atomic shared_ptr) and read each metric with relaxed atomic
/// loads. A snapshot is therefore NOT a cross-metric atomic cut — values
/// racing with concurrent updates may mix "before" and "after" per
/// metric — but every value is itself a coherent atomic read, and a
/// quiescent registry snapshots exactly.
class Registry {
 public:
  /// A point-in-time value capture of every registered metric, every
  /// family name-sorted (the index is built from the name-ordered maps).
  /// Plain values, no locks, no references into the registry: safe to
  /// ship across threads or render at leisure.
  struct Snapshot {
    struct HistogramValue {
      std::uint64_t count = 0;
      std::uint64_t sum = 0;
      /// Nonzero buckets only, as (bit_width bucket index, count),
      /// index-ascending. Bucket k >= 1 holds samples in [2^(k-1), 2^k);
      /// bucket 0 holds only the sample 0.
      std::vector<std::pair<int, std::uint64_t>> buckets;
    };
    struct TimerValue {
      std::uint64_t total_ns = 0;
      std::uint64_t count = 0;
    };
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<std::pair<std::string, HistogramValue>> histograms;
    std::vector<std::pair<std::string, TimerValue>> timers;
  };

  [[nodiscard]] static Registry& instance();

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Log2Histogram& histogram(std::string_view name);
  [[nodiscard]] Timer& timer(std::string_view name);

  /// Folds a shard's local deltas into the registry counters, in the
  /// accumulator's insertion order. Callers invoke this from an in-order
  /// completion hook, which is what makes the merge sequence
  /// deterministic; the call itself also counts into "telemetry.merges".
  void merge(const ShardAccumulator& shard);

  /// Captures every metric's current value. Lock-free for readers once
  /// the cached index is warm (see the class comment); this is the one
  /// snapshot implementation everything else renders from.
  [[nodiscard]] Snapshot read_snapshot() const;

  /// {"counters":{...},"gauges":{...},"histograms":{...},"timers":{...}}
  /// — every family name-sorted; timers as {"ns":...,"count":...}.
  /// Rendered from read_snapshot().
  [[nodiscard]] Json snapshot() const;

  /// Zeroes every value in place; registered objects (and references to
  /// them) survive. For tests and multi-spec drivers.
  void reset();

 private:
  /// Immutable name→object view of the registry, shared by concurrent
  /// readers. Pointers stay valid forever (metric objects are never
  /// deallocated); the index itself is replaced, never mutated, when a
  /// registration bumps `generation_`.
  struct Index {
    std::uint64_t generation = 0;
    std::vector<std::pair<std::string, const Counter*>> counters;
    std::vector<std::pair<std::string, const Gauge*>> gauges;
    std::vector<std::pair<std::string, const Log2Histogram*>> histograms;
    std::vector<std::pair<std::string, const Timer*>> timers;
  };

  template <typename Metric>
  using Family = std::map<std::string, std::unique_ptr<Metric>>;

  Registry() = default;

  /// The metric registered as `name`, registering it first (mutex_ held).
  template <typename Metric>
  Metric& find_or_add(Family<Metric>& family, std::string_view name);

  [[nodiscard]] std::shared_ptr<const Index> current_index() const;

  mutable std::mutex mutex_;
  Family<Counter> counters_;
  Family<Gauge> gauges_;
  Family<Log2Histogram> histograms_;
  Family<Timer> timers_;
  /// Bumped (under mutex_) by every first-use registration; readers
  /// compare it against the cached index's generation without locking.
  std::atomic<std::uint64_t> generation_{1};
  mutable std::atomic<std::shared_ptr<const Index>> index_;
};

/// Shorthand for Registry::instance().
[[nodiscard]] inline Registry& registry() { return Registry::instance(); }

// ------------------------------------------------------------------------
// Activity stack (what is the run doing *right now*?)
// ------------------------------------------------------------------------

/// Process-wide stack of named activities (phases, waves, checkpoint
/// writes, spill merges), pushed and popped by announced trace::Spans.
/// The live view's `phase` is the innermost name, so a long checkpoint
/// or merge reads as itself instead of a stall. Entries are
/// token-addressed, not strictly LIFO: announced spans may close out of
/// order across threads, and pop(token) removes the matching entry
/// wherever it sits.
class ActivityStack {
 public:
  [[nodiscard]] static ActivityStack& instance();

  /// Pushes `name`; returns a token for pop().
  std::uint64_t push(std::string name);
  void pop(std::uint64_t token);
  /// The innermost active name ("" when idle).
  [[nodiscard]] std::string current() const;

 private:
  ActivityStack() = default;

  mutable std::mutex mutex_;
  std::uint64_t next_token_ = 1;
  std::vector<std::pair<std::uint64_t, std::string>> stack_;
};

/// Shorthand for ActivityStack::instance().
[[nodiscard]] inline ActivityStack& activity() { return ActivityStack::instance(); }

// ------------------------------------------------------------------------
// Run identity and the live view
// ------------------------------------------------------------------------

/// What identifies a run: the heartbeat and /status fields, the /metrics
/// `aurv_run_info` labels and the metrics snapshot's `run` object. Each
/// driver command builds one and hands it to all three.
struct RunInfo {
  std::string kind;           ///< "campaign" | "gather-census" | "search" | ...
  std::string spec;           ///< the spec file the run executes
  std::string fingerprint;    ///< spec fingerprint, 16 hex digits ("" if n/a)
  std::uint64_t threads = 0;  ///< effective worker count
  /// Driver-specific shape (shard_size, wave counts, spill config, ...);
  /// only the metrics snapshot records it, as `run.config`.
  Json config = Json::object();
};

/// Active degradations: the name of every nonzero gauge ending in
/// ".degraded" (`trace.degraded`, `search.frontier.degraded`, ...), as a
/// JSON array. Empty = healthy.
[[nodiscard]] Json degradations(const Registry::Snapshot& snapshot);

/// The one live view of a running process, rendered from one snapshot:
///
///   {"kind","spec","fingerprint","threads","elapsed_s",
///    "phase":"<innermost activity>","counters":{...},"gauges":{...},
///    "degraded":[...]}
///
/// statusd's /status serves exactly this; each heartbeat line adds only
/// "heartbeat" and "rates".
[[nodiscard]] Json live_view(const RunInfo& run, double elapsed_s,
                             const Registry::Snapshot& snapshot);

// ------------------------------------------------------------------------
// Heartbeat
// ------------------------------------------------------------------------

struct HeartbeatConfig {
  /// Seconds between beats; <= 0 disables the reporter entirely (the
  /// constructor then starts no thread).
  double interval_s = 10.0;
  /// One-line JSON per beat lands here (default stderr). Never a
  /// deterministic artifact stream.
  std::FILE* out = nullptr;
  /// Identity fields stamped into every beat line.
  RunInfo run;
};

/// Clock-driven progress reporter: a background thread that every
/// `interval_s` seconds writes one line of compact JSON to `out`: the
/// live view, preceded by the beat number and followed by per-second
/// counter rates since the previous beat:
///
///   {"heartbeat":k,<live_view fields>,
///    "rates":{"<counter>":per_second_since_last_beat,...}}
///
/// Purely observational: it reads the registry's atomics and writes to a
/// FILE*, so it cannot perturb any artifact byte. Destruction (or stop())
/// joins the thread; beat_now() emits one synchronous line (the final
/// beat, and the unit tests' hook).
class Heartbeat {
 public:
  explicit Heartbeat(HeartbeatConfig config);
  ~Heartbeat();
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  void stop();
  void beat_now();

  [[nodiscard]] std::uint64_t beats() const noexcept {
    return beats_.load(std::memory_order_relaxed);
  }

 private:
  void run();
  void emit();

  HeartbeatConfig config_;
  std::chrono::steady_clock::time_point start_;
  /// Rate baseline: the previous beat's counters, name-sorted.
  std::vector<std::pair<std::string, std::uint64_t>> last_counters_;
  std::chrono::steady_clock::time_point last_beat_;
  std::atomic<std::uint64_t> beats_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;  ///< last member: joins before the rest tears down
};

// ------------------------------------------------------------------------
// Metrics snapshot
// ------------------------------------------------------------------------

/// Compiler / standard / build-mode identification, for snapshot triage.
[[nodiscard]] Json build_info();

/// The versioned end-of-run snapshot (`schema` 1, `kind`
/// "metrics-snapshot"): run identity (with `config` when nonempty) +
/// build info + wall_ms + the full registry snapshot. THE one place
/// wall-clock values are allowed besides stderr. Pass the driver's own
/// wall span as `wall_ms`.
[[nodiscard]] Json metrics_snapshot(const RunInfo& run, double wall_ms);

/// Writes `metrics_snapshot(...)` to `path` (pretty-printed, trailing
/// newline). Deliberately NOT routed through the support::vfs() seam: the
/// metrics sink is diagnostics, not a durable artifact, so it must not
/// enlarge the fault-injection site enumeration the torture matrix
/// replays against.
void write_metrics(const std::string& path, const RunInfo& run, double wall_ms);

}  // namespace aurv::support::telemetry
