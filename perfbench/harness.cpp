// The measured side of perfbench/run.py: runs one workload's generated
// specs through the library's public runners and prints one JSON object
// on stdout. run.py builds this binary, writes the specs, and turns the
// object into the benchmark's metrics.
//
//   perfbench_harness calib
//   perfbench_harness setup   <workload> <dir>
//   perfbench_harness measure <workload> <dir> <seconds>
//   perfbench_harness trace   <workload> <dir>
//
// <dir> holds spec.json (census_type2, gather_funnel) or spec_<k>.json
// (search_spill, one per search); artifacts, spill segments, checkpoints
// and the Chrome trace are written there too.
//
// calib    a fixed pure-CPU loop, timed. run.py runs it in its own process
//          before and after the workload, so a slow host episode can be
//          told from a regression without the probe adding to the
//          workload process's peak RSS.
// setup    time from process start to the first job being ready (spec
//          load and validation, registry and objective resolution, first
//          program built). One sample per process: caches are cold.
// measure  the untraced end-to-end run: rounds of one serial pass and one
//          parallel run, until <seconds> are spent (at least kMinRounds).
//          The serial throughput times fixed chunks of work (kChunkJobs
//          census jobs, or one whole search) and keeps each chunk's best
//          time over the passes; the parallel throughput times whole runner
//          runs at kWorkers workers, and run.py takes their median. Slow
//          host phases come and go on a scale of 0.2-10 s: interleaved, both
//          estimators sample the whole window, and a chunk is timed in a
//          fast phase at least once unless a slow phase outlasts the window.
//          For slow phases that do, a fixed host reference kernel is timed
//          between the measured work and run.py normalizes both
//          throughputs by it; see perfbench/NOISE.md.
// trace    one instrumented serial pass that keeps spans in memory around
//          every call into a layer, plus side passes that cost program
//          pulls and geometry solves, and one parallel run for idle time
//          and count checks. Nothing inside src/ is traced.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "gatherx/census.hpp"
#include "gatherx/scenario.hpp"
#include "geom/closest_approach.hpp"
#include "search/bnb.hpp"
#include "search/objective.hpp"
#include "sim/engine.hpp"
#include "support/json.hpp"
#include "support/jsonl.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace aurv;
using support::Json;
using Clock = std::chrono::steady_clock;

// Taken before any default-priority static initializer of the library, so
// work a later change moves into static initialization still counts as
// set-up.
const Clock::time_point g_process_start __attribute__((init_priority(101))) = Clock::now();

constexpr std::size_t kWorkers = 4;
/// Measure rounds (one serial pass, one parallel run): at least this many,
/// more until the run's seconds are spent.
constexpr int kMinRounds = 5;
/// Census chunk: a divisor of the runners' default shard size, so chunk
/// aggregates merge exactly where the runner merges shards.
constexpr std::uint64_t kChunkJobs = 64;
/// search_spill: hot frontier cap, so the cold tail spills to segments.
constexpr std::size_t kFrontierMem = 256;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

volatile std::uint64_t g_sink = 0;

/// A fixed pure-CPU loop (xorshift chain, no memory traffic), best of
/// three: a slow host episode shows as a slower loop, a regression in the
/// library does not.
double calibration_ms() {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull + g_sink;
    for (int i = 0; i < 10'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    g_sink = x;
    best = std::min(best, seconds_since(start) * 1e3);
  }
  return best;
}

/// Bytes of arena one reference kernel run needs (it uses under 384 KiB).
constexpr std::size_t kReferenceArena = 512 * 1024;

/// The host reference: a fixed allocator- and pointer-heavy loop (a map of
/// small vectors under inserts and erases), the kind of memory traffic the
/// engines make. On a contended host its time tracked the workloads' where
/// the pure-CPU loop did not (perfbench/NOISE.md), so the end-to-end
/// throughputs are normalized by it. It allocates from its own arena, so
/// the library's heap, and any change to it, cannot move it. Frozen:
/// changing it rescales every normalized figure.
std::size_t reference_work(std::byte* arena) {
  std::pmr::monotonic_buffer_resource buffer(arena, kReferenceArena,
                                             std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&buffer);
  std::pmr::map<std::uint64_t, std::pmr::vector<int>> map(&pool);
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 6000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    map[x % 4096].push_back(static_cast<int>(x));
    if (i % 3 == 0) map.erase(map.begin());
  }
  return map.size();
}

/// Reference samples taken between the measured work, so they see the same
/// host phases: one serial sample whenever kReferenceEvery of serial work
/// has passed since the last, and kParallelSamples samples on kWorkers
/// threads after each parallel run.
class HostReference {
 public:
  static constexpr double kReferenceEvery = 0.025;
  static constexpr int kParallelItems = 32;
  static constexpr int kParallelSamples = 8;

  void serial_sample_if_due() {
    if (seconds_since(last_) < kReferenceEvery) return;
    const auto start = Clock::now();
    g_sink = g_sink + reference_work(arenas_.data());
    serial_ms_.push_back(seconds_since(start) * 1e3);
    last_ = Clock::now();
  }

  /// kWorkers threads take kParallelItems kernel runs from a shared
  /// counter, as the runners' workers take shards: a slow CPU does fewer
  /// items instead of holding up the rest.
  void parallel_sample() {
    for (int sample = 0; sample < kParallelSamples; ++sample) {
      std::atomic<int> next{0};
      std::vector<std::size_t> sinks(kWorkers);
      const auto start = Clock::now();
      std::vector<std::thread> threads;
      for (std::size_t k = 0; k < kWorkers; ++k)
        threads.emplace_back([this, &next, &sinks, k] {
          std::byte* arena = arenas_.data() + k * kReferenceArena;
          while (next.fetch_add(1) < kParallelItems) sinks[k] += reference_work(arena);
        });
      for (std::thread& thread : threads) thread.join();
      parallel_ms_.push_back(seconds_since(start) * 1e3);
      for (const std::size_t sink : sinks) g_sink = g_sink + sink;
    }
    last_ = Clock::now();
  }

  /// The fastest serial sample and the median parallel sample: the same
  /// statistics the serial and parallel estimators take of the workload.
  [[nodiscard]] Json to_json() const {
    std::vector<double> parallel = parallel_ms_;
    std::sort(parallel.begin(), parallel.end());
    Json json = Json::object();
    json.set("serial_samples", Json(static_cast<std::uint64_t>(serial_ms_.size())));
    json.set("serial_best_ms",
             Json(serial_ms_.empty() ? 0.0 : *std::min_element(serial_ms_.begin(), serial_ms_.end())));
    json.set("parallel_samples", Json(static_cast<std::uint64_t>(parallel.size())));
    json.set("parallel_median_ms", Json(parallel.empty() ? 0.0 : parallel[parallel.size() / 2]));
    return json;
  }

 private:
  std::vector<std::byte> arenas_ = std::vector<std::byte>(kWorkers * kReferenceArena);
  Clock::time_point last_ = Clock::now();
  std::vector<double> serial_ms_;
  std::vector<double> parallel_ms_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) throw std::runtime_error("cannot write " + path.string());
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  if (std::fclose(file) != 0 || !ok) throw std::runtime_error("short write to " + path.string());
}

// ------------------------------------------------------------------ spans --

/// In-memory spans (name, start, end, parent, job id), written out at the
/// end. Thread-safe so a decorator called from a runner's worker can record.
class Spans {
 public:
  static constexpr int kNoParent = -1;

  int open(const char* name, int parent, std::uint64_t job = 0) {
    const std::int64_t now = now_ns();
    const std::scoped_lock lock(mutex_);
    spans_.push_back({name, now, now, parent, job});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    const std::int64_t now = now_ns();
    const std::scoped_lock lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = now;
  }

  /// Seconds covered by all spans of `name`.
  [[nodiscard]] double total_s(const std::string& name) const {
    double total = 0.0;
    for (const Span& span : spans_)
      if (name == span.name) total += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    return total;
  }
  [[nodiscard]] std::uint64_t count(const std::string& name) const {
    return static_cast<std::uint64_t>(std::count_if(
        spans_.begin(), spans_.end(), [&](const Span& span) { return name == span.name; }));
  }
  /// Durations (ms) of every span of `name`, sorted.
  [[nodiscard]] std::vector<double> sorted_ms(const std::string& name) const {
    std::vector<double> values;
    for (const Span& span : spans_)
      if (name == span.name) values.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    std::sort(values.begin(), values.end());
    return values;
  }

  /// Self time per span name: each span's duration minus the part of it
  /// its child spans cover (children never overlap in a serial pass).
  [[nodiscard]] Json self_seconds() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t k = 0; k < spans_.size(); ++k)
      self[k] = spans_[k].end_ns - spans_[k].start_ns;
    for (const Span& span : spans_)
      if (span.parent != kNoParent)
        self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
    std::vector<std::pair<std::string, double>> by_name;
    for (std::size_t k = 0; k < spans_.size(); ++k) {
      const auto found = std::find_if(by_name.begin(), by_name.end(),
                                      [&](const auto& entry) { return entry.first == spans_[k].name; });
      if (found == by_name.end())
        by_name.emplace_back(spans_[k].name, static_cast<double>(self[k]) * 1e-9);
      else
        found->second += static_cast<double>(self[k]) * 1e-9;
    }
    Json json = Json::object();
    for (auto& [name, seconds] : by_name) json.set(name, Json(seconds));
    return json;
  }

  /// Chrome Trace Event Format, the shape scripts/trace_report.py reads:
  /// complete "X" events in microseconds, without the enclosing array.
  /// Depth 0 and 1 spans are the run's phases; deeper ones are named
  /// <module>.<call> and categorized by module.
  [[nodiscard]] std::string chrome_events() const {
    std::string out;
    for (std::size_t k = 0; k < spans_.size(); ++k) {
      const Span& span = spans_[k];
      const bool phase = span.parent == kNoParent ||
                         spans_[static_cast<std::size_t>(span.parent)].parent == kNoParent;
      const std::string name = span.name;
      const std::string cat = phase ? "phase" : name.substr(0, name.find('.'));
      char buffer[256];
      std::snprintf(buffer, sizeof buffer,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%lld,\"dur\":%lld,\"args\":{\"id\":%zu,\"parent\":%d,\"job\":%llu}}",
                    span.name, cat.c_str(), static_cast<long long>(span.start_ns / 1000),
                    static_cast<long long>((span.end_ns - span.start_ns) / 1000), k, span.parent,
                    static_cast<unsigned long long>(span.job));
      if (!out.empty()) out += ",\n";
      out += buffer;
    }
    return out;
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::uint64_t job;
  };
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Spans& spans, const char* name, int parent, std::uint64_t job = 0)
      : spans_(spans), id_(spans.open(name, parent, job)) {}
  ~Scope() { spans_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Spans& spans_;
  int id_;
};

// ---------------------------------------------------- registry readings --

/// Registry values by name; a counter a later change deleted or renamed
/// reads as absent (std::nullopt), never as a failure.
struct Readings {
  Json snapshot = support::telemetry::registry().snapshot();

  [[nodiscard]] std::optional<double> get(const char* family, const std::string& name) const {
    const Json* group = snapshot.find(family);
    const Json* value = group != nullptr ? group->find(name) : nullptr;
    if (value == nullptr) return std::nullopt;
    if (value->is_object()) {  // timers: {"ns": ..., "count": ...}
      const Json* ns = value->find("ns");
      if (ns == nullptr) return std::nullopt;
      return ns->as_number() * 1e-9;
    }
    return value->as_number();
  }
  [[nodiscard]] std::optional<double> counter(const std::string& name) const {
    return get("counters", name);
  }
};

/// Counter families that must read the same after a serial and a parallel
/// run of the same work.
bool deterministic_family(const std::string& name) {
  for (const char* prefix : {"engine.", "filter.", "search.", "spill."})
    if (name.rfind(prefix, 0) == 0) return true;
  return false;
}

/// Names of the serial reading's deterministic counters that the parallel
/// reading lacks or reads differently.
Json counter_mismatches(const Readings& serial, const Readings& parallel) {
  Json mismatches = Json::array();
  const Json* a = serial.snapshot.find("counters");
  const Json* b = parallel.snapshot.find("counters");
  if (a == nullptr || b == nullptr) return mismatches;
  for (const auto& [name, value] : a->as_object()) {
    if (!deterministic_family(name)) continue;
    const Json* other = b->find(name);
    if (other == nullptr || other->as_number() != value.as_number()) mismatches.push_back(Json(name));
  }
  return mismatches;
}

// ------------------------------------------------------------- side passes --

/// One constant-velocity window between two consecutive trace points.
struct Window {
  geom::Vec2 offset;
  geom::Vec2 relative;
  double radius = 0.0;
  double duration = 0.0;
};

void collect_windows(const sim::SimResult& run, double radius, std::vector<Window>& out,
                     std::size_t cap) {
  const auto& points = run.trace.points();
  for (std::size_t k = 0; k + 1 < points.size() && out.size() < cap; ++k) {
    const double duration = points[k + 1].time - points[k].time;
    if (!(duration > 0.0) || !std::isfinite(duration)) continue;
    const geom::Vec2 moved = (points[k + 1].a - points[k].a) - (points[k + 1].b - points[k].b);
    const geom::Vec2 relative = (1.0 / duration) * moved;
    if (!std::isfinite(relative.x) || !std::isfinite(relative.y)) continue;
    out.push_back({points[k].a - points[k].b, relative, radius, duration});
  }
}

/// ns per geom::first_contact call over the replayed windows (best pass).
std::optional<double> ns_per_solve(const std::vector<Window>& windows) {
  if (windows.empty()) return std::nullopt;
  double best = std::numeric_limits<double>::infinity();
  double spent = 0.0;
  for (int pass = 0; pass < 5 || spent < 0.05; ++pass) {
    const auto start = Clock::now();
    double acc = 0.0;
    for (const Window& w : windows)
      acc += geom::first_contact(w.offset, w.relative, w.radius, w.duration).value_or(-1.0);
    const double elapsed = seconds_since(start);
    g_sink = g_sink + static_cast<std::uint64_t>(acc != acc);
    spent += elapsed;
    best = std::min(best, elapsed);
  }
  return best * 1e9 / static_cast<double>(windows.size());
}

constexpr std::size_t kGeomWindowCap = 1u << 16;
constexpr std::size_t kTraceCapacity = 1u << 14;

/// Seconds spent pulling `count` instructions from a fresh program stream.
double pull_seconds(const sim::AlgorithmFactory& factory, std::uint64_t count) {
  const auto start = Clock::now();
  program::Program program = factory();
  std::uint64_t moves = 0;
  for (std::uint64_t k = 0; k < count && program.next(); ++k)
    moves += program::is_move(program.value()) ? 1 : 0;
  g_sink = g_sink + moves;
  return seconds_since(start);
}

// --------------------------------------------------------------- results --

struct Execution {
  std::string name;
  bool serial_eq_parallel = false;
  bool chunked_eq_runner = false;
  bool repeats_identical = false;
  bool invariant = false;
  Json mismatched_counters = Json::array();

  [[nodiscard]] bool ok() const {
    return serial_eq_parallel && chunked_eq_runner && repeats_identical && invariant &&
           mismatched_counters.as_array().empty();
  }
  [[nodiscard]] Json to_json() const {
    Json json = Json::object();
    json.set("name", Json(name));
    json.set("ok", Json(ok()));
    json.set("serial_eq_parallel", Json(serial_eq_parallel));
    json.set("chunked_eq_runner", Json(chunked_eq_runner));
    json.set("repeats_identical", Json(repeats_identical));
    json.set("invariant", Json(invariant));
    json.set("mismatched_counters", mismatched_counters);
    return json;
  }
};

Json executions_json(const std::vector<Execution>& executions) {
  Json json = Json::array();
  for (const Execution& execution : executions) json.push_back(execution.to_json());
  return json;
}

/// Per-layer values by metric name; names never set are absent.
class Layers {
 public:
  void set(const std::string& name, double value) { json_.set(name, Json(value)); }
  void set(const std::string& name, std::optional<double> value) {
    if (value) set(name, *value);
  }
  [[nodiscard]] const Json& json() const { return json_; }

 private:
  Json json_ = Json::object();
};

void set_latencies(Layers& layers, const std::string& module, const std::vector<double>& ms) {
  if (ms.empty()) return;
  const auto rank = [&](double p) {
    const auto index = static_cast<std::size_t>(std::ceil(p * static_cast<double>(ms.size())));
    return ms[std::clamp<std::size_t>(index, 1, ms.size()) - 1];
  };
  layers.set(module + ".run_ms_p50", rank(0.50));
  layers.set(module + ".run_ms_p99", rank(0.99));
  layers.set(module + ".run_samples", static_cast<double>(ms.size()));
}

void set_numeric(Layers& layers, const Readings& readings) {
  const auto fast = readings.counter("filter.fast_hits");
  const auto limb2 = readings.counter("filter.limb2_hits");
  const auto exact = readings.counter("filter.exact_escapes");
  layers.set("numeric.fast_hits", fast);
  layers.set("numeric.limb2_hits", limb2);
  layers.set("numeric.exact_escapes", exact);
  if (fast && limb2 && exact && *fast + *limb2 + *exact > 0)
    layers.set("numeric.escape_ratio", (*limb2 + *exact) / (*fast + *limb2 + *exact));
}

Json trace_report(const Layers& layers, const Spans& spans, const std::vector<Execution>& executions) {
  Json json = Json::object();
  json.set("layers", layers.json());
  json.set("span_self_s", spans.self_seconds());
  json.set("executions", executions_json(executions));
  return json;
}

// ---------------------------------------------------------- census-style --

/// census_type2: AlmostUniversalRV over sampled type-2 instances through
/// exp::run_campaign.
struct Type2Census {
  using Aggregate = exp::CampaignAggregate;
  static constexpr const char* kModule = "exp";
  static constexpr const char* kEngine = "sim";
  static constexpr const char* kRunSpan = "sim.run";
  static constexpr const char* kShardSpan = "exp.shard";
  static constexpr const char* kAggregateSpan = "exp.aggregate";
  static constexpr const char* kSummarySpan = "exp.summary";

  exp::ScenarioSpec spec;
  exp::AlgorithmResolver resolver;

  explicit Type2Census(const Json& json)
      : spec(exp::ScenarioSpec::from_json(json)), resolver(exp::resolve_algorithm(spec.algorithm)) {}

  [[nodiscard]] std::uint64_t jobs() const { return spec.total_jobs(); }
  [[nodiscard]] std::uint64_t sims() const { return jobs(); }

  void run_job(std::uint64_t job, Aggregate& aggregate) const {
    const agents::Instance instance = exp::campaign_instance(spec, job);
    aggregate.add(sim::Engine(instance, spec.engine).run(resolver(instance)));
  }

  /// The first job's programs, built and started: the end of set-up.
  void ready_first_job() const {
    const agents::Instance instance = exp::campaign_instance(spec, 0);
    const sim::AlgorithmFactory factory = resolver(instance);
    const sim::Engine engine(instance, spec.engine);
    program::Program a = factory();
    program::Program b = factory();
    g_sink = g_sink + static_cast<std::uint64_t>(a.next()) + static_cast<std::uint64_t>(b.next());
  }

  [[nodiscard]] std::string runner_artifact(std::size_t threads) const {
    exp::CampaignOptions options;
    options.threads = threads;
    return exp::run_campaign(spec, options).summary(spec).dump(2);
  }
  [[nodiscard]] std::string artifact(const Aggregate& aggregate) const {
    exp::CampaignResult result;
    result.aggregate = aggregate;
    result.jobs = result.jobs_run = jobs();
    return result.summary(spec).dump(2);
  }
  /// Every run meets, none runs out of fuel.
  [[nodiscard]] bool invariant(const Aggregate& aggregate) const {
    return aggregate.runs == jobs() && aggregate.met == jobs() &&
           aggregate.stop_reasons[static_cast<std::size_t>(sim::StopReason::FuelExhausted)] == 0;
  }

  struct TracedRuns {
    std::vector<agents::Instance> instances;
    std::vector<std::uint64_t> instructions_a;
  };

  void traced_job(std::uint64_t job, Aggregate& aggregate, Spans& spans, int parent,
                  TracedRuns& traced) const {
    const Scope scope(spans, "job", parent, job);
    agents::Instance instance = [&] {
      const Scope sample(spans, "agents.sample", scope.id(), job);
      return exp::campaign_instance(spec, job);
    }();
    sim::SimResult run;
    {
      const Scope simulate(spans, kRunSpan, scope.id(), job);
      run = sim::Engine(instance, spec.engine).run(resolver(instance));
    }
    {
      const Scope add(spans, kAggregateSpan, scope.id(), job);
      aggregate.add(run);
    }
    traced.instructions_a.push_back(run.instructions_a);
    traced.instances.push_back(std::move(instance));
  }

  void side_passes(const TracedRuns& traced, Layers& layers) const {
    double pull = 0.0;
    double instructions = 0.0;
    std::vector<Window> windows;
    sim::EngineConfig traced_config = spec.engine;
    traced_config.trace_capacity = kTraceCapacity;
    for (std::size_t k = 0; k < traced.instances.size(); ++k) {
      const agents::Instance& instance = traced.instances[k];
      const sim::AlgorithmFactory factory = resolver(instance);
      pull += pull_seconds(factory, traced.instructions_a[k]);
      instructions += static_cast<double>(traced.instructions_a[k]);
      if (windows.size() < kGeomWindowCap)
        collect_windows(sim::Engine(instance, traced_config).run(factory),
                        instance.r() + spec.engine.contact_slack, windows, kGeomWindowCap);
    }
    layers.set("program.instructions", instructions);
    layers.set("program.pull_s", pull);
    layers.set("geom.ns_per_solve", ns_per_solve(windows));
  }
};

/// gather_funnel: Latecomers over spread chains under both stop policies,
/// through gatherx::run_census.
struct GatherFunnel {
  using Aggregate = gatherx::GatherAggregate;
  static constexpr const char* kModule = "gatherx";
  static constexpr const char* kEngine = "gather";
  static constexpr const char* kRunSpan = "gather.run";
  static constexpr const char* kShardSpan = "gatherx.shard";
  static constexpr const char* kAggregateSpan = "gatherx.aggregate";
  static constexpr const char* kSummarySpan = "gatherx.summary";

  gatherx::GatherScenarioSpec spec;
  sim::AlgorithmFactory factory;

  explicit GatherFunnel(const Json& json)
      : spec(gatherx::GatherScenarioSpec::from_json(json)),
        factory(exp::resolve_common_algorithm(spec.algorithm)) {}

  [[nodiscard]] std::uint64_t jobs() const { return spec.total_jobs(); }
  [[nodiscard]] std::uint64_t sims() const { return jobs() * spec.policies.size(); }

  [[nodiscard]] static bool funnel(const agents::GatherInstance& instance) {
    return instance.n() < 2 || gather::is_funnel_configuration(instance.agents, instance.r);
  }

  void run_job(std::uint64_t job, Aggregate& aggregate) const {
    const agents::GatherInstance instance = gatherx::census_instance(spec, job);
    const bool is_funnel = funnel(instance);
    for (const gather::StopPolicy policy : spec.policies) {
      const gather::GatherConfig config = spec.engine_config(policy, instance.n(), instance.r);
      aggregate.add(policy, gather::GatherEngine(instance.agents, config).run(factory), is_funnel);
    }
  }

  void ready_first_job() const {
    const agents::GatherInstance instance = gatherx::census_instance(spec, 0);
    const gather::GatherConfig config =
        spec.engine_config(spec.policies.front(), instance.n(), instance.r);
    const gather::GatherEngine engine(instance.agents, config);
    program::Program program = factory();
    g_sink = g_sink + static_cast<std::uint64_t>(program.next()) + engine.agent_count();
  }

  [[nodiscard]] std::string runner_artifact(std::size_t threads) const {
    gatherx::CensusOptions options;
    options.threads = threads;
    return gatherx::run_census(spec, options).summary(spec).dump(2);
  }
  [[nodiscard]] std::string artifact(const Aggregate& aggregate) const {
    gatherx::CensusResult result;
    result.aggregate = aggregate;
    result.jobs = result.jobs_run = jobs();
    return result.summary(spec).dump(2);
  }
  /// Every job is accounted for under every configured policy.
  [[nodiscard]] bool invariant(const Aggregate& aggregate) const {
    for (const gather::StopPolicy policy : spec.policies) {
      const gatherx::PolicyAggregate& slice = aggregate.slice(policy);
      std::uint64_t stops = 0;
      for (const std::uint64_t count : slice.stop_reasons) stops += count;
      if (slice.runs != jobs() || stops != jobs()) return false;
    }
    return true;
  }

  struct TracedRuns {
    double events = 0.0;
  };

  void traced_job(std::uint64_t job, Aggregate& aggregate, Spans& spans, int parent,
                  TracedRuns& traced) const {
    const Scope scope(spans, "job", parent, job);
    const agents::GatherInstance instance = [&] {
      const Scope sample(spans, "agents.sample", scope.id(), job);
      return gatherx::census_instance(spec, job);
    }();
    const bool is_funnel = funnel(instance);
    for (const gather::StopPolicy policy : spec.policies) {
      gather::GatherResult run;
      {
        const Scope simulate(spans, kRunSpan, scope.id(), job);
        run = gather::GatherEngine(instance.agents,
                                   spec.engine_config(policy, instance.n(), instance.r))
                  .run(factory);
      }
      traced.events += static_cast<double>(run.events);
      const Scope add(spans, kAggregateSpan, scope.id(), job);
      aggregate.add(policy, run, is_funnel);
    }
  }

  /// The gather engine exposes neither per-run instruction counts nor a
  /// trajectory trace, so program and geometry side passes are absent.
  void side_passes(const TracedRuns&, Layers&) const {}
};

Json load_spec(const std::filesystem::path& dir) { return Json::load_file(dir / "spec.json"); }

/// The steady serial estimator: passes over the same fixed kChunkJobs-job
/// chunks; each chunk's best time counts. Passes, not back-to-back repeats,
/// so one chunk's repeats are spread over the whole window and a slow host
/// phase shorter than the window cannot slow all of them. Every repeat of a
/// chunk starts from the aggregate the first pass had there, and the first
/// pass folds chunk aggregates into shards merged in order, exactly as the
/// runner merges.
template <typename W>
class ChunkedSerial {
 public:
  explicit ChunkedSerial(const W& workload)
      : workload_(workload),
        jobs_(workload.jobs()),
        chunks_((jobs_ + kChunkJobs - 1) / kChunkJobs),
        start_(chunks_),
        end_(chunks_),
        best_(chunks_, std::numeric_limits<double>::infinity()) {
    static_assert(kChunkJobs > 0);
    if (shard_size_ % kChunkJobs != 0) throw std::logic_error("chunk must divide the shard size");
  }

  void pass(HostReference& reference) {
    const bool first = passes_++ == 0;
    typename W::Aggregate shard;
    for (std::uint64_t chunk = 0; chunk < chunks_; ++chunk) {
      const std::uint64_t lo = chunk * kChunkJobs;
      const std::uint64_t hi = std::min(jobs_, lo + kChunkJobs);
      if (first) start_[chunk] = shard;
      typename W::Aggregate aggregate = start_[chunk];
      const auto clock = Clock::now();
      for (std::uint64_t job = lo; job < hi; ++job) workload_.run_job(job, aggregate);
      best_[chunk] = std::min(best_[chunk], seconds_since(clock));
      reference.serial_sample_if_due();
      if (!first) {
        repeats_identical_ = repeats_identical_ && aggregate == end_[chunk];
        continue;
      }
      end_[chunk] = aggregate;
      shard = std::move(aggregate);
      if (hi % shard_size_ == 0 || hi == jobs_) {
        total_.merge(shard);
        shard = {};
      }
    }
  }

  /// Sum of the chunks' best times.
  [[nodiscard]] double busy_s() const {
    double busy = 0.0;
    for (const double seconds : best_) busy += seconds;
    return busy;
  }
  [[nodiscard]] std::uint64_t chunks() const { return chunks_; }
  [[nodiscard]] std::uint64_t passes() const { return passes_; }
  [[nodiscard]] bool repeats_identical() const { return repeats_identical_; }
  /// The aggregate of the whole workload, as the runner merges it.
  [[nodiscard]] const typename W::Aggregate& total() const { return total_; }

 private:
  const W& workload_;
  const std::uint64_t shard_size_ = exp::CampaignOptions{}.shard_size;
  const std::uint64_t jobs_;
  const std::uint64_t chunks_;
  std::vector<typename W::Aggregate> start_;
  std::vector<typename W::Aggregate> end_;
  std::vector<double> best_;
  typename W::Aggregate total_;
  std::uint64_t passes_ = 0;
  bool repeats_identical_ = true;
};

template <typename W>
Json measure_census(const std::filesystem::path& dir, double seconds) {
  const W workload(load_spec(dir));
  const auto window_start = Clock::now();

  ChunkedSerial<W> chunked(workload);
  HostReference reference;
  Json parallel_s = Json::array();
  std::string parallel_artifact;
  bool parallel_repeatable = true;
  for (int pass = 0; pass < kMinRounds || seconds_since(window_start) < seconds; ++pass) {
    chunked.pass(reference);
    const auto start = Clock::now();
    std::string artifact = workload.runner_artifact(kWorkers);
    parallel_s.push_back(Json(seconds_since(start)));
    reference.parallel_sample();
    if (pass == 0)
      parallel_artifact = std::move(artifact);
    else
      parallel_repeatable = parallel_repeatable && artifact == parallel_artifact;
  }
  const std::string chunked_artifact = workload.artifact(chunked.total());
  const std::string serial_artifact = workload.runner_artifact(1);
  write_text(dir / "artifact.json", serial_artifact);

  Execution execution;
  execution.name = workload.spec.name;
  execution.serial_eq_parallel = serial_artifact == parallel_artifact && parallel_repeatable;
  execution.chunked_eq_runner = chunked_artifact == serial_artifact;
  execution.repeats_identical = chunked.repeats_identical();
  execution.invariant = workload.invariant(W::Aggregate::from_json(
      Json::parse(serial_artifact).at("aggregate")));

  Json json = Json::object();
  json.set("sims", Json(workload.sims()));
  json.set("serial_busy_s", Json(chunked.busy_s()));
  json.set("chunks", Json(chunked.chunks()));
  json.set("passes", Json(chunked.passes()));
  json.set("parallel_s", std::move(parallel_s));
  json.set("reference", reference.to_json());
  json.set("executions", executions_json({execution}));
  json.set("artifacts", Json(Json::Array{Json((dir / "artifact.json").string())}));
  json.set("peak_rss_mb", Json(peak_rss_mb()));
  return json;
}

template <typename W>
Json trace_census(const std::filesystem::path& dir) {
  Spans spans;
  Layers layers;
  const int root = spans.open("workload", Spans::kNoParent);

  std::unique_ptr<W> workload;
  {
    const Scope load(spans, "support.load", root);
    workload = std::make_unique<W>(load_spec(dir));
  }
  const std::uint64_t shard_size = exp::CampaignOptions{}.shard_size;
  const std::uint64_t jobs = workload->jobs();

  // Untraced reference pass: the same loop without spans.
  const auto untraced_start = Clock::now();
  {
    typename W::Aggregate total;
    for (std::uint64_t lo = 0; lo < jobs; lo += shard_size) {
      typename W::Aggregate shard;
      for (std::uint64_t job = lo; job < std::min(jobs, lo + shard_size); ++job)
        workload->run_job(job, shard);
      total.merge(shard);
    }
  }
  const double untraced_s = seconds_since(untraced_start);

  support::telemetry::registry().reset();
  typename W::TracedRuns traced;
  typename W::Aggregate total;
  const std::string module = W::kModule;
  const auto traced_start = Clock::now();
  {
    const Scope pass(spans, "serial_pass", root);
    for (std::uint64_t lo = 0; lo < jobs; lo += shard_size) {
      const Scope shard_scope(spans, W::kShardSpan, pass.id(), lo / shard_size);
      typename W::Aggregate shard;
      for (std::uint64_t job = lo; job < std::min(jobs, lo + shard_size); ++job)
        workload->traced_job(job, shard, spans, shard_scope.id(), traced);
      const Scope merge(spans, W::kAggregateSpan, shard_scope.id(), lo / shard_size);
      total.merge(shard);
    }
  }
  const double traced_s = seconds_since(traced_start);
  std::string traced_artifact;
  {
    const Scope summary(spans, W::kSummarySpan, root);
    traced_artifact = workload->artifact(total);
  }
  const Readings serial_readings;

  {
    const Scope side(spans, "side_passes", root);
    workload->side_passes(traced, layers);
  }

  support::telemetry::registry().reset();
  const auto parallel_start = Clock::now();
  std::string parallel_artifact;
  {
    const Scope parallel(spans, "parallel_pass", root);
    parallel_artifact = workload->runner_artifact(kWorkers);
  }
  const double parallel_s = seconds_since(parallel_start);
  const Readings parallel_readings;
  spans.close(root);

  Execution execution;
  execution.name = workload->spec.name;
  execution.serial_eq_parallel = traced_artifact == parallel_artifact;
  execution.chunked_eq_runner = execution.serial_eq_parallel;
  execution.repeats_identical = true;
  execution.invariant = workload->invariant(total);
  execution.mismatched_counters = counter_mismatches(serial_readings, parallel_readings);

  const std::string engine = W::kEngine;
  const double run_s = spans.total_s(W::kRunSpan);
  layers.set("agents.sample_calls", static_cast<double>(spans.count("agents.sample")));
  layers.set("agents.sample_s", spans.total_s("agents.sample"));
  set_numeric(layers, serial_readings);
  layers.set(engine + ".run_s", run_s);
  set_latencies(layers, engine, spans.sorted_ms(W::kRunSpan));
  std::optional<double> events;
  if constexpr (std::is_same_v<W, Type2Census>) {
    layers.set("sim.runs", serial_readings.counter("engine.runs"));
    events = serial_readings.counter("engine.events");
    const auto solves = serial_readings.counter("engine.window_solves");
    layers.set("geom.window_solves", solves);
    const Json& values = layers.json();
    const Json* ns = values.find("geom.ns_per_solve");
    const Json* pull = values.find("program.pull_s");
    if (solves && ns != nullptr) {
      const double est = *solves * ns->as_number() * 1e-9;
      layers.set("geom.est_s", est);
      if (pull != nullptr) layers.set("sim.self_s", run_s - pull->as_number() - est);
    }
  } else {
    layers.set("gather.runs", static_cast<double>(spans.count(W::kRunSpan)));
    events = traced.events;
  }
  layers.set(engine + ".events", events);
  if (events && *events > 0) layers.set(engine + ".ns_per_event", run_s * 1e9 / *events);
  layers.set(module + ".aggregate_s", spans.total_s(W::kAggregateSpan));
  layers.set(module + ".summary_s", spans.total_s(W::kSummarySpan));
  layers.set("support.load_s", spans.total_s("support.load"));
  // An estimate from serial busy time: the census runners run jobs on their
  // own workers and expose no per-job hook, so the busy sum is the traced
  // serial pass's job spans. Shared-cache contention at kWorkers workers
  // makes real per-job busy time longer, so this overstates idle time;
  // span overhead pushes it the other way, and it can read below zero.
  layers.set("support.parallel_idle_frac",
             1.0 - spans.total_s("job") / (static_cast<double>(kWorkers) * parallel_s));
  layers.set("trace.overhead_frac", traced_s / untraced_s - 1.0);

  write_text(dir / "trace_events.json", spans.chrome_events());
  return trace_report(layers, spans, {execution});
}

template <typename W>
Json setup_census(const std::filesystem::path& dir) {
  const W workload(load_spec(dir));
  workload.ready_first_job();
  Json json = Json::object();
  json.set("setup_s", Json(seconds_since(g_process_start)));
  return json;
}

// ------------------------------------------------------------ search_spill --

/// Decorator objective: spans around every evaluate and bound call, and
/// the evaluated points for the side passes.
class TimedObjective final : public search::Objective {
 public:
  TimedObjective(const search::Objective& inner, Spans& spans, int parent)
      : inner_(inner), spans_(spans), parent_(parent) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] search::Evaluation evaluate(
      const std::vector<numeric::Rational>& point) const override {
    const Scope scope(spans_, "search.evaluate", parent_);
    search::Evaluation evaluation = inner_.evaluate(point);
    const std::scoped_lock lock(mutex_);
    points_.push_back(point);
    return evaluation;
  }
  [[nodiscard]] double bound(const search::ParamBox& box) const override {
    const Scope scope(spans_, "search.bound", parent_);
    return inner_.bound(box);
  }
  [[nodiscard]] Json descriptor() const override { return inner_.descriptor(); }

  [[nodiscard]] const std::vector<std::vector<numeric::Rational>>& points() const {
    return points_;
  }

 private:
  const search::Objective& inner_;
  Spans& spans_;
  int parent_;
  mutable std::mutex mutex_;
  mutable std::vector<std::vector<numeric::Rational>> points_;
};

struct Search {
  exp::SearchSpec spec;
  search::AlgorithmResolverFn resolver;
  std::unique_ptr<search::Objective> objective;

  explicit Search(const Json& json)
      : spec(exp::SearchSpec::from_json(json)),
        resolver(exp::search_algorithm_resolver(spec)),
        objective(search::make_objective(spec.objective, spec.space, resolver, spec.engine)) {}
};

std::vector<std::filesystem::path> search_spec_paths(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> paths;
  for (std::size_t k = 0; std::filesystem::exists(dir / ("spec_" + std::to_string(k) + ".json"));
       ++k)
    paths.push_back(dir / ("spec_" + std::to_string(k) + ".json"));
  if (paths.empty()) throw std::runtime_error("no spec_<k>.json in " + dir.string());
  return paths;
}

std::vector<Search> load_searches(const std::filesystem::path& dir) {
  std::vector<Search> searches;
  for (const auto& path : search_spec_paths(dir)) searches.emplace_back(Json::load_file(path));
  return searches;
}

/// Empties the directory a search spills and checkpoints into.
void reset_scratch(const std::filesystem::path& scratch) {
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch / "spill");
}

/// One complete search through search::run_bnb with a spilled frontier and
/// a per-wave checkpoint journal under `scratch` (reset_scratch first).
search::BnbResult run_search(const Search& s, const search::Objective& objective,
                             std::size_t shards, const std::filesystem::path& scratch) {
  search::BnbOptions options;
  options.max_shards = shards;
  options.spill_dir = (scratch / "spill").string();
  options.frontier_mem = kFrontierMem;
  options.checkpoint_path = (scratch / "checkpoint.json").string();
  options.fingerprint = support::fingerprint_hex(s.spec.fingerprint());
  options.dim_names = s.spec.space.dim_names;
  return search::run_bnb(s.spec.root_box(), objective, s.spec.limits, options);
}

/// The certificate body: incumbent, statistics, frontier residual.
std::string certificate(const search::BnbResult& result) { return result.to_json().dump(2); }

/// The certificate is complete, spent its budget or exhausted the space,
/// and its incumbent re-simulates to the recorded score.
bool search_invariant(const Search& s, const search::BnbResult& result) {
  if (!result.complete() || !result.incumbent.found) return false;
  if (!result.exhausted && result.stats.evaluated != s.spec.limits.max_boxes) return false;
  return s.objective->evaluate(result.incumbent.point).score == result.incumbent.score;
}

Json measure_search(const std::filesystem::path& dir, double seconds) {
  const std::vector<Search> searches = load_searches(dir);
  const std::filesystem::path scratch = dir / "scratch";
  const auto window_start = Clock::now();

  std::vector<Execution> executions(searches.size());
  std::vector<std::string> serial(searches.size());
  std::vector<search::BnbResult> serial_results(searches.size());
  std::vector<double> best(searches.size(), std::numeric_limits<double>::infinity());
  std::vector<bool> parallel_equal(searches.size(), true);
  Json parallel_s = Json::array();
  HostReference reference;
  int passes = 0;
  for (; passes < kMinRounds || seconds_since(window_start) < seconds; ++passes) {
    for (std::size_t k = 0; k < searches.size(); ++k) {
      reset_scratch(scratch);
      const auto start = Clock::now();
      search::BnbResult result = run_search(searches[k], *searches[k].objective, 1, scratch);
      best[k] = std::min(best[k], seconds_since(start));
      reference.serial_sample_if_due();
      std::string cert = certificate(result);
      if (passes == 0) {
        executions[k].name = searches[k].spec.name;
        executions[k].repeats_identical = true;
        serial[k] = std::move(cert);
        serial_results[k] = std::move(result);
      } else {
        executions[k].repeats_identical = executions[k].repeats_identical && cert == serial[k];
      }
    }
    double pass_s = 0.0;
    for (std::size_t k = 0; k < searches.size(); ++k) {
      reset_scratch(scratch);
      const auto start = Clock::now();
      const search::BnbResult result =
          run_search(searches[k], *searches[k].objective, kWorkers, scratch);
      pass_s += seconds_since(start);
      parallel_equal[k] = parallel_equal[k] && certificate(result) == serial[k];
    }
    parallel_s.push_back(Json(pass_s));
    reference.parallel_sample();
  }
  double busy = 0.0;
  std::uint64_t sims = 0;
  for (std::size_t k = 0; k < searches.size(); ++k) {
    busy += best[k];
    sims += serial_results[k].stats.evaluated;
  }
  std::filesystem::remove_all(scratch);

  Json artifacts = Json::array();
  for (std::size_t k = 0; k < searches.size(); ++k) {
    const std::filesystem::path path = dir / ("artifact_" + std::to_string(k) + ".json");
    write_text(path, serial[k]);
    artifacts.push_back(Json(path.string()));
    executions[k].serial_eq_parallel = parallel_equal[k];
    // The chunked estimator runs run_bnb itself, so its certificate is the
    // serial runner artifact.
    executions[k].chunked_eq_runner = parallel_equal[k];
    executions[k].invariant = search_invariant(searches[k], serial_results[k]);
  }

  Json json = Json::object();
  json.set("sims", Json(sims));
  json.set("serial_busy_s", Json(busy));
  json.set("chunks", Json(static_cast<std::uint64_t>(searches.size())));
  json.set("passes", Json(static_cast<std::uint64_t>(passes)));
  json.set("parallel_s", std::move(parallel_s));
  json.set("reference", reference.to_json());
  json.set("executions", executions_json(executions));
  json.set("artifacts", std::move(artifacts));
  json.set("peak_rss_mb", Json(peak_rss_mb()));
  return json;
}

Json trace_search(const std::filesystem::path& dir) {
  Spans spans;
  Layers layers;
  const int root = spans.open("workload", Spans::kNoParent);
  std::vector<Search> searches;
  {
    const Scope load(spans, "support.load", root);
    searches = load_searches(dir);
  }
  const std::filesystem::path scratch = dir / "scratch";

  double untraced_s = 0.0;
  for (const Search& s : searches) {
    reset_scratch(scratch);
    const auto start = Clock::now();
    (void)run_search(s, *s.objective, 1, scratch);
    untraced_s += seconds_since(start);
  }

  support::telemetry::registry().reset();
  std::vector<std::string> serial;
  std::vector<search::BnbResult> results;
  std::vector<std::vector<std::vector<numeric::Rational>>> points;
  double traced_s = 0.0;
  {
    const Scope pass(spans, "serial_pass", root);
    for (std::size_t k = 0; k < searches.size(); ++k) {
      reset_scratch(scratch);
      const auto start = Clock::now();
      const Scope bnb(spans, "search.bnb", pass.id(), k);
      const TimedObjective timed(*searches[k].objective, spans, bnb.id());
      results.push_back(run_search(searches[k], timed, 1, scratch));
      traced_s += seconds_since(start);
      points.push_back(timed.points());
    }
  }
  for (std::size_t k = 0; k < searches.size(); ++k)
    serial.push_back(certificate(results[k]));
  const Readings serial_readings;

  double pull = 0.0;
  double instructions = 0.0;
  std::vector<Window> windows;
  {
    const Scope side(spans, "side_passes", root);
    for (std::size_t k = 0; k < searches.size(); ++k) {
      const Search& s = searches[k];
      sim::EngineConfig traced_config = s.spec.engine;
      traced_config.trace_capacity = kTraceCapacity;
      for (const auto& point : points[k]) {
        const agents::Instance instance = s.spec.space.instance_at(point);
        const sim::AlgorithmFactory factory = s.resolver(instance);
        const sim::SimResult run = sim::Engine(instance, traced_config).run(factory);
        pull += pull_seconds(factory, run.instructions_a);
        instructions += static_cast<double>(run.instructions_a);
        if (windows.size() < kGeomWindowCap)
          collect_windows(run, instance.r() + s.spec.engine.contact_slack, windows,
                          kGeomWindowCap);
      }
    }
  }

  support::telemetry::registry().reset();
  std::vector<Execution> executions(searches.size());
  double parallel_s = 0.0;
  // The workers' evaluate spans, kept apart from the serial pass's: their
  // sum over the run's wall time gives the parallel run's idle share.
  Spans worker_spans;
  {
    const Scope parallel(spans, "parallel_pass", root);
    for (std::size_t k = 0; k < searches.size(); ++k) {
      reset_scratch(scratch);
      const auto start = Clock::now();
      const TimedObjective timed(*searches[k].objective, worker_spans, Spans::kNoParent);
      const search::BnbResult result = run_search(searches[k], timed, kWorkers, scratch);
      parallel_s += seconds_since(start);
      executions[k].name = searches[k].spec.name;
      executions[k].serial_eq_parallel = certificate(result) == serial[k];
    }
  }
  const Readings parallel_readings;
  std::filesystem::remove_all(scratch);
  spans.close(root);

  const Json mismatches = counter_mismatches(serial_readings, parallel_readings);
  double evaluated = 0.0;
  double pruned = 0.0;
  double waves = 0.0;
  double high_water = 0.0;
  for (std::size_t k = 0; k < searches.size(); ++k) {
    executions[k].chunked_eq_runner = executions[k].serial_eq_parallel;
    executions[k].repeats_identical = true;
    executions[k].invariant = search_invariant(searches[k], results[k]);
    executions[k].mismatched_counters = mismatches;
    evaluated += static_cast<double>(results[k].stats.evaluated);
    pruned += static_cast<double>(results[k].stats.pruned);
    waves += static_cast<double>(results[k].stats.waves);
    high_water = std::max(high_water, static_cast<double>(results[k].stats.max_frontier));
  }

  const double evaluate_s = spans.total_s("search.evaluate");
  const auto events = serial_readings.counter("engine.events");
  const auto solves = serial_readings.counter("engine.window_solves");
  const auto ns = ns_per_solve(windows);
  set_numeric(layers, serial_readings);
  layers.set("agents.sample_calls", 0.0);
  layers.set("agents.sample_s", 0.0);
  layers.set("program.instructions", instructions);
  layers.set("program.pull_s", pull);
  layers.set("geom.window_solves", solves);
  layers.set("geom.ns_per_solve", ns);
  layers.set("sim.runs", serial_readings.counter("engine.runs"));
  layers.set("sim.events", events);
  layers.set("sim.run_s", evaluate_s);
  if (events && *events > 0) layers.set("sim.ns_per_event", evaluate_s * 1e9 / *events);
  set_latencies(layers, "sim", spans.sorted_ms("search.evaluate"));
  if (solves && ns) {
    const double est = *solves * *ns * 1e-9;
    layers.set("geom.est_s", est);
    layers.set("sim.self_s", evaluate_s - pull - est);
  }
  layers.set("search.evaluated", evaluated);
  layers.set("search.pruned", pruned);
  if (evaluated + pruned > 0) layers.set("search.prune_ratio", pruned / (evaluated + pruned));
  layers.set("search.waves", waves);
  layers.set("search.evaluate_s", evaluate_s);
  layers.set("search.bound_calls", static_cast<double>(spans.count("search.bound")));
  layers.set("search.bound_s", spans.total_s("search.bound"));
  const Json self = spans.self_seconds();
  if (const Json* bnb_self = self.find("search.bnb")) layers.set("search.bnb_self_s", bnb_self->as_number());
  layers.set("search.frontier_high_water", high_water);
  layers.set("support.load_s", spans.total_s("support.load"));
  layers.set("support.parallel_idle_frac",
             1.0 - worker_spans.total_s("search.evaluate") /
                       (static_cast<double>(kWorkers) * parallel_s));
  layers.set("support.spill_bytes", serial_readings.counter("spill.bytes"));
  layers.set("support.spill_segments", serial_readings.counter("spill.segments"));
  layers.set("support.vfs_writes", serial_readings.counter("vfs.writes"));
  layers.set("support.checkpoint_s", serial_readings.get("timers", "search.checkpoint"));
  layers.set("trace.overhead_frac", traced_s / untraced_s - 1.0);

  write_text(dir / "trace_events.json", spans.chrome_events());
  return trace_report(layers, spans, executions);
}

Json setup_search(const std::filesystem::path& dir) {
  const Search first(Json::load_file(search_spec_paths(dir).front()));
  g_sink = g_sink + static_cast<std::uint64_t>(first.objective->bound(first.spec.root_box()) > 0);
  Json json = Json::object();
  json.set("setup_s", Json(seconds_since(g_process_start)));
  return json;
}

// ------------------------------------------------------------------- main --

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness calib\n"
               "       perfbench_harness setup|trace <workload> <dir>\n"
               "       perfbench_harness measure <workload> <dir> <seconds>\n"
               "workloads: census_type2 gather_funnel search_spill\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "calib") {
    std::printf("{\"calib_ms\":%.6f}\n", calibration_ms());
    return 0;
  }
  if (argc < 4) return usage();
  const std::string mode = argv[1];
  const std::string workload = argv[2];
  const std::filesystem::path dir = argv[3];
  try {
    Json result;
    if (mode == "setup") {
      if (workload == "census_type2") result = setup_census<Type2Census>(dir);
      else if (workload == "gather_funnel") result = setup_census<GatherFunnel>(dir);
      else if (workload == "search_spill") result = setup_search(dir);
      else return usage();
    } else if (mode == "measure" && argc == 5) {
      const double seconds = std::stod(argv[4]);
      if (workload == "census_type2") result = measure_census<Type2Census>(dir, seconds);
      else if (workload == "gather_funnel") result = measure_census<GatherFunnel>(dir, seconds);
      else if (workload == "search_spill") result = measure_search(dir, seconds);
      else return usage();
    } else if (mode == "trace") {
      if (workload == "census_type2") result = trace_census<Type2Census>(dir);
      else if (workload == "gather_funnel") result = trace_census<GatherFunnel>(dir);
      else if (workload == "search_spill") result = trace_search(dir);
      else return usage();
    } else {
      return usage();
    }
    std::printf("%s\n", result.dump().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_harness: %s\n", error.what());
    return 1;
  }
}
