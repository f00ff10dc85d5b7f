#include "support/telemetry.hpp"

#include <chrono>
#include <string>

namespace aurv::support::telemetry {

namespace {

/// {"<name>": value, ...} of one scalar family, in snapshot (name) order.
template <typename Value>
Json family_json(const std::vector<std::pair<std::string, Value>>& family) {
  Json out = Json::object();
  for (const auto& [name, value] : family) out.set(name, Json(value));
  return out;
}

/// Compiler / standard / build-mode identification, for snapshot triage.
Json build_info() {
  Json out = Json::object();
#if defined(__clang__)
  out.set("compiler", Json(std::string("clang ") + std::to_string(__clang_major__) + "." +
                           std::to_string(__clang_minor__)));
#elif defined(__GNUC__)
  out.set("compiler", Json(std::string("gcc ") + std::to_string(__GNUC__) + "." +
                           std::to_string(__GNUC_MINOR__)));
#else
  out.set("compiler", Json("unknown"));
#endif
  out.set("cpp_standard", Json(static_cast<std::uint64_t>(__cplusplus)));
#if defined(NDEBUG)
  out.set("build_type", Json("release"));
#else
  out.set("build_type", Json("debug"));
#endif
  return out;
}

}  // namespace

Registry& Registry::instance() {
  static Registry* the_registry = new Registry();  // never destroyed: references
                                                   // handed out must outlive exit paths
  return *the_registry;
}

template <typename Metric>
Metric& Registry::find_or_add(Family<Metric>& family, std::string_view name) {
  std::lock_guard lock(mutex_);
  auto& slot = family[std::string(name)];
  if (!slot) slot = std::make_unique<Metric>();
  return *slot;
}

Counter& Registry::counter(std::string_view name) { return find_or_add(counters_, name); }
Gauge& Registry::gauge(std::string_view name) { return find_or_add(gauges_, name); }
Log2Histogram& Registry::histogram(std::string_view name) {
  return find_or_add(histograms_, name);
}
Timer& Registry::timer(std::string_view name) { return find_or_add(timers_, name); }

Registry::Snapshot Registry::read_snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot out;
  for (const auto& [name, c] : counters_) out.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges_) out.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : histograms_) {
    Snapshot::HistogramValue value;
    value.count = h->count();
    value.sum = h->sum();
    for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
      const std::uint64_t n = h->bucket(i);
      if (n != 0) value.buckets.emplace_back(i, n);
    }
    out.histograms.emplace_back(name, std::move(value));
  }
  for (const auto& [name, t] : timers_) {
    out.timers.emplace_back(name, Snapshot::TimerValue{t->total_ns(), t->count()});
  }
  return out;
}

Json Registry::snapshot() const {
  const Snapshot snap = read_snapshot();
  Json histograms = Json::object();
  for (const auto& [name, value] : snap.histograms) {
    Json buckets = Json::object();
    for (const auto& [index, n] : value.buckets)
      buckets.set(std::to_string(Log2Histogram::floor(index)), Json(n));
    Json entry = Json::object();
    entry.set("count", Json(value.count));
    entry.set("sum", Json(value.sum));
    entry.set("buckets", std::move(buckets));
    histograms.set(name, std::move(entry));
  }
  Json timers = Json::object();
  for (const auto& [name, value] : snap.timers) {
    Json entry = Json::object();
    entry.set("ns", Json(value.total_ns));
    entry.set("count", Json(value.count));
    timers.set(name, std::move(entry));
  }
  Json out = Json::object();
  out.set("counters", family_json(snap.counters));
  out.set("gauges", family_json(snap.gauges));
  out.set("histograms", std::move(histograms));
  out.set("timers", std::move(timers));
  return out;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->clear();
  for (auto& [name, g] : gauges_) g->clear();
  for (auto& [name, h] : histograms_) h->clear();
  for (auto& [name, t] : timers_) t->clear();
}

// ------------------------------------------------------------------------
// Activity stack
// ------------------------------------------------------------------------

ActivityStack& ActivityStack::instance() {
  static ActivityStack* the_stack = new ActivityStack();  // never destroyed, like the registry
  return *the_stack;
}

std::uint64_t ActivityStack::push(std::string name) {
  std::lock_guard lock(mutex_);
  const std::uint64_t token = next_token_++;
  stack_.emplace_back(token, std::move(name));
  return token;
}

void ActivityStack::pop(std::uint64_t token) {
  std::lock_guard lock(mutex_);
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (it->first == token) {
      stack_.erase(std::next(it).base());
      return;
    }
  }
}

std::string ActivityStack::current() const {
  std::lock_guard lock(mutex_);
  return stack_.empty() ? std::string() : stack_.back().second;
}

// ------------------------------------------------------------------------
// Live view
// ------------------------------------------------------------------------

Json degradations(const Registry::Snapshot& snapshot) {
  Json out = Json::array();
  for (const auto& [name, value] : snapshot.gauges) {
    if (value != 0 && name.size() > 9 && name.ends_with(".degraded")) out.push_back(Json(name));
  }
  return out;
}

Json live_view(const RunInfo& run, double elapsed_s, const Registry::Snapshot& snapshot) {
  Json out = Json::object();
  out.set("kind", Json(run.kind));
  out.set("spec", Json(run.spec));
  out.set("fingerprint", Json(run.fingerprint));
  out.set("threads", Json(run.threads));
  out.set("elapsed_s", Json(elapsed_s));
  out.set("phase", Json(activity().current()));
  out.set("counters", family_json(snapshot.counters));
  out.set("gauges", family_json(snapshot.gauges));
  out.set("degraded", degradations(snapshot));
  return out;
}

// ------------------------------------------------------------------------
// Heartbeat
// ------------------------------------------------------------------------

Heartbeat::Heartbeat(HeartbeatConfig config)
    : config_(std::move(config)), start_(std::chrono::steady_clock::now()), last_beat_(start_) {
  if (config_.out == nullptr) config_.out = stderr;
  last_counters_ = registry().read_snapshot().counters;
  if (config_.interval_s > 0) {
    thread_ = std::thread([this] { run(); });
  }
}

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Heartbeat::beat_now() {
  std::lock_guard lock(mutex_);
  emit();
}

void Heartbeat::run() {
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config_.interval_s));
  std::unique_lock lock(mutex_);
  auto next = start_ + interval;
  while (!stopping_) {
    if (cv_.wait_until(lock, next, [this] { return stopping_; })) break;
    emit();
    next += interval;
  }
}

void Heartbeat::emit() {
  // Called with mutex_ held. One read_snapshot() feeds the live view and
  // the rates.
  const auto now = std::chrono::steady_clock::now();
  const double elapsed_s = std::chrono::duration<double>(now - start_).count();
  const double since_last_s = std::chrono::duration<double>(now - last_beat_).count();
  Registry::Snapshot snap = registry().read_snapshot();

  // Both counter lists are name-sorted and names are never unregistered,
  // so one forward walk pairs every counter with its previous value.
  Json rates = Json::object();
  auto before = last_counters_.cbegin();
  for (const auto& [name, value] : snap.counters) {
    while (before != last_counters_.cend() && before->first < name) ++before;
    const std::uint64_t base =
        before != last_counters_.cend() && before->first == name ? before->second : 0;
    if (since_last_s > 0 && value > base)
      rates.set(name, Json(static_cast<double>(value - base) / since_last_s));
  }

  const std::uint64_t seq = beats_.fetch_add(1, std::memory_order_relaxed) + 1;
  Json line = live_view(config_.run, elapsed_s, snap);
  line.as_object().emplace(line.as_object().begin(), "heartbeat", Json(seq));
  line.set("rates", std::move(rates));

  const std::string text = line.dump() + "\n";
  std::fwrite(text.data(), 1, text.size(), config_.out);
  std::fflush(config_.out);

  last_counters_ = std::move(snap.counters);
  last_beat_ = now;
}

// ------------------------------------------------------------------------
// Metrics snapshot
// ------------------------------------------------------------------------

Json metrics_snapshot(const RunInfo& run, double wall_ms) {
  Json identity = Json::object();
  identity.set("kind", Json(run.kind));
  identity.set("spec", Json(run.spec));
  identity.set("fingerprint", Json(run.fingerprint));
  identity.set("threads", Json(run.threads));
  if (run.config.is_object() && !run.config.as_object().empty()) {
    identity.set("config", run.config);
  }
  identity.set("build", build_info());

  Json out = Json::object();
  out.set("schema", Json(1));
  out.set("kind", Json("metrics-snapshot"));
  out.set("run", std::move(identity));
  out.set("wall_ms", Json(wall_ms));
  const Json metrics = registry().snapshot();
  for (const auto& [key, value] : metrics.as_object()) out.set(key, value);
  return out;
}

}  // namespace aurv::support::telemetry
