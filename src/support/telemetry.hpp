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
//   * every metric is a `Cells<N>` array of relaxed atomic 64-bit words
//     (a gauge two's complement) — integer sums commute, so end-of-run
//     totals of counters, gauges and histograms are identical at any
//     thread count;
//   * per-shard tallies are added by the runner's *in-order* completion
//     hook — the same shard-ordered discipline the aggregates use, so
//     even the intermediate counter sequence is deterministic;
//   * timers are wall-clock and therefore the one deliberately
//     nondeterministic family; they are confined to the metrics sink.
//
// Metric objects are registered on first use and never deallocated, so a
// `static auto& c = telemetry::registry().counter("x")` at a call site
// pays the registry lock exactly once. `Registry::reset()` clears every
// metric's cells in place (references stay valid) — for tests and for
// drivers that run several specs in one process.
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

/// N relaxed atomic words: the one storage of every metric family, and
/// the one way to zero it (`Registry::reset()` clears each metric in
/// place).
template <std::size_t N>
class Cells {
 public:
  void clear() noexcept {
    for (auto& cell : cells_) cell.store(0, std::memory_order_relaxed);
  }

 protected:
  [[nodiscard]] std::uint64_t load(std::size_t i = 0) const noexcept {
    return cells_[i].load(std::memory_order_relaxed);
  }
  void bump(std::size_t i, std::uint64_t n) noexcept {
    cells_[i].fetch_add(n, std::memory_order_relaxed);
  }

  std::array<std::atomic<std::uint64_t>, N> cells_{};
};

/// Monotonic event count. Totals are thread-count-invariant (relaxed
/// integer adds commute).
class Counter : public Cells<1> {
 public:
  void add(std::uint64_t n = 1) noexcept { bump(0, n); }
  [[nodiscard]] std::uint64_t value() const noexcept { return load(); }
};

/// Last-written level (frontier depth, jobs total, degradation state),
/// held two's complement in its cell. Writers must be serialized (e.g.
/// the in-order completion hook) for the sequence of values to be
/// deterministic; the final value then is too.
class Gauge : public Cells<1> {
 public:
  void set(std::int64_t v) noexcept {
    cells_[0].store(static_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept { bump(0, static_cast<std::uint64_t>(n)); }
  /// Raises the gauge to `v` if above the current value (high-water marks;
  /// a signed compare).
  void set_max(std::int64_t v) noexcept {
    std::uint64_t cur = load();
    while (static_cast<std::int64_t>(cur) < v &&
           !cells_[0].compare_exchange_weak(cur, static_cast<std::uint64_t>(v),
                                            std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept { return static_cast<std::int64_t>(load()); }
};

/// Power-of-two bucketed distribution of nonnegative integer samples
/// (event counts, byte sizes). Bucket index = std::bit_width(sample):
/// bucket 0 holds only the zero sample, bucket k >= 1 the samples in
/// [floor(k), 2 floor(k)). Cells 0..64 are the buckets, then count and
/// sum. Integer counts: totals are thread-count-invariant.
class Log2Histogram : public Cells<67> {
 public:
  static constexpr int kBuckets = 65;

  /// The smallest sample bucket `index` holds: 0, 1, 2, 4, ..., 2^63.
  [[nodiscard]] static constexpr std::uint64_t floor(int index) noexcept {
    return index == 0 ? 0 : std::uint64_t{1} << (index - 1);
  }

  void record(std::uint64_t sample) noexcept {
    bump(static_cast<std::size_t>(std::bit_width(sample)), 1);
    bump(kBuckets, 1);
    bump(kBuckets + 1, sample);
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return load(kBuckets); }
  [[nodiscard]] std::uint64_t sum() const noexcept { return load(kBuckets + 1); }
  [[nodiscard]] std::uint64_t bucket(int index) const noexcept {
    return load(static_cast<std::size_t>(index));
  }
};

/// Accumulated wall-clock time (cell 0) over a span count (cell 1). The
/// one nondeterministic metric family: values go to the metrics sink and
/// stderr only, never into artifacts.
class Timer : public Cells<2> {
 public:
  void add_ns(std::uint64_t ns) noexcept {
    bump(0, ns);
    bump(1, 1);
  }
  [[nodiscard]] std::uint64_t total_ns() const noexcept { return load(0); }
  [[nodiscard]] std::uint64_t count() const noexcept { return load(1); }
};

/// The process-wide metric registry. Lookup registers on first use;
/// objects live for the process lifetime, so cached references never
/// dangle. Snapshots render every family with name-sorted keys.
///
/// Snapshot thread-safety: `read_snapshot()` is the one snapshot
/// implementation (the JSON `snapshot()`, the live view and /metrics are
/// renderings of it) and is safe to call concurrently from any number of
/// threads. It holds the registry mutex while it walks the name-ordered
/// maps (snapshots are rare: a heartbeat, a scrape, the end of a run) and
/// reads each metric with relaxed atomic loads. A snapshot is therefore
/// NOT a cross-metric atomic cut — values racing with concurrent updates
/// may mix "before" and "after" per metric — but every value is itself a
/// coherent atomic read, and a quiescent registry snapshots exactly.
class Registry {
 public:
  /// A point-in-time value capture of every registered metric, every
  /// family name-sorted (read from the name-ordered maps).
  /// Plain values, no locks, no references into the registry: safe to
  /// ship across threads or render at leisure.
  struct Snapshot {
    struct HistogramValue {
      std::uint64_t count = 0;
      std::uint64_t sum = 0;
      /// Nonzero buckets only, as (bit_width bucket index, count),
      /// index-ascending (see Log2Histogram::floor).
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

  /// Captures every metric's current value under the registry mutex;
  /// the one snapshot implementation everything else renders from.
  [[nodiscard]] Snapshot read_snapshot() const;

  /// {"counters":{...},"gauges":{...},"histograms":{...},"timers":{...}}
  /// — every family name-sorted; timers as {"ns":...,"count":...}.
  /// Rendered from read_snapshot().
  [[nodiscard]] Json snapshot() const;

  /// Zeroes every value in place; registered objects (and references to
  /// them) survive. For tests and multi-spec drivers.
  void reset();

 private:
  template <typename Metric>
  using Family = std::map<std::string, std::unique_ptr<Metric>>;

  Registry() = default;

  /// The metric registered as `name`, registering it first (takes mutex_).
  template <typename Metric>
  Metric& find_or_add(Family<Metric>& family, std::string_view name);

  mutable std::mutex mutex_;
  Family<Counter> counters_;
  Family<Gauge> gauges_;
  Family<Log2Histogram> histograms_;
  Family<Timer> timers_;
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

/// The versioned end-of-run snapshot (`schema` 1, `kind`
/// "metrics-snapshot"): run identity (with `config` when nonempty) +
/// build info (compiler, standard, build mode) + wall_ms + the full
/// registry snapshot. THE one place wall-clock values are allowed
/// besides stderr. Pass the driver's own wall span as `wall_ms`. Drivers
/// save it with `Json::save_file`, not through the support::vfs() seam:
/// the metrics sink is diagnostics, not a durable artifact, so it must
/// not enlarge the fault-injection site enumeration the torture matrix
/// replays against.
[[nodiscard]] Json metrics_snapshot(const RunInfo& run, double wall_ms);

}  // namespace aurv::support::telemetry
