// Telemetry core unit tests: counter/gauge/histogram/timer semantics, the
// registry's first-use registration and reset-in-place contract, snapshots
// racing concurrent first-use registration, the heartbeat reporter's line
// format, and the metrics snapshot shape.
//
// The registry is process-global, so every test that asserts on totals
// either resets it first or uses names no other test touches.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "test_paths.hpp"
#include "support/telemetry.hpp"

namespace aurv::support::telemetry {
namespace {

using support::Json;
using testpaths::slurp;
using testpaths::temp_path;

// ------------------------------------------------------------- primitives --

TEST(Telemetry, CounterAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Telemetry, GaugeSetAddAndHighWater) {
  Gauge gauge;
  gauge.set(-7);
  EXPECT_EQ(gauge.value(), -7);
  gauge.add(10);
  EXPECT_EQ(gauge.value(), 3);
  gauge.set_max(100);
  EXPECT_EQ(gauge.value(), 100);
  gauge.set_max(5);  // never lowers
  EXPECT_EQ(gauge.value(), 100);

  // The cell is unsigned; set_max compares signed.
  gauge.set(-10);
  gauge.set_max(-20);
  EXPECT_EQ(gauge.value(), -10);
  gauge.set_max(-3);
  EXPECT_EQ(gauge.value(), -3);
  gauge.set_max(0);  // crossing zero: an unsigned compare would keep -3
  EXPECT_EQ(gauge.value(), 0);
}

TEST(Telemetry, HistogramBucketsByBitWidth) {
  Log2Histogram histogram;
  histogram.record(0);  // bucket 0: the zero sample
  histogram.record(1);  // bucket 1: [1, 2)
  histogram.record(2);  // bucket 2: [2, 4)
  histogram.record(3);
  histogram.record(4);  // bucket 3: [4, 8)
  histogram.record(1023);  // bucket 10: [512, 1024)
  EXPECT_EQ(histogram.count(), 6u);
  EXPECT_EQ(histogram.sum(), 1033u);
  EXPECT_EQ(histogram.bucket(0), 1u);
  EXPECT_EQ(histogram.bucket(1), 1u);
  EXPECT_EQ(histogram.bucket(2), 2u);
  EXPECT_EQ(histogram.bucket(3), 1u);
  EXPECT_EQ(histogram.bucket(10), 1u);

  // The snapshot rendering: only the nonzero buckets, keyed by their
  // lower bound.
  registry().reset();
  Log2Histogram& registered = registry().histogram("test.histogram.buckets");
  for (const std::uint64_t sample : {0, 1, 2, 3, 4, 1023}) registered.record(sample);
  const Json json = registry().snapshot().at("histograms").at("test.histogram.buckets");
  EXPECT_EQ(json.at("count").as_uint(), 6u);
  EXPECT_EQ(json.at("sum").as_uint(), 1033u);
  const Json& buckets = json.at("buckets");
  EXPECT_EQ(buckets.as_object().size(), 5u);
  EXPECT_EQ(buckets.at("0").as_uint(), 1u);
  EXPECT_EQ(buckets.at("2").as_uint(), 2u);
  EXPECT_EQ(buckets.at("512").as_uint(), 1u);
  EXPECT_EQ(buckets.find("1024"), nullptr);

  // The widest sample lands in the last bucket, keyed 2^63.
  Log2Histogram top;
  top.record(UINT64_MAX);
  EXPECT_EQ(top.bucket(64), 1u);
  registry().histogram("test.histogram.top").record(UINT64_MAX);
  const Json top_buckets =
      registry().snapshot().at("histograms").at("test.histogram.top").at("buckets");
  EXPECT_EQ(top_buckets.as_object().size(), 1u);
  EXPECT_EQ(top_buckets.at("9223372036854775808").as_uint(), 1u);
}

// --------------------------------------------------------------- registry --

TEST(Telemetry, RegistryHandsOutStableReferences) {
  Counter& first = registry().counter("test.registry.stable");
  Counter& again = registry().counter("test.registry.stable");
  EXPECT_EQ(&first, &again);
  Counter& other = registry().counter("test.registry.other");
  EXPECT_NE(&first, &other);
}

TEST(Telemetry, RegistryResetZeroesInPlace) {
  Counter& counter = registry().counter("test.reset.counter");
  Gauge& gauge = registry().gauge("test.reset.gauge");
  Log2Histogram& histogram = registry().histogram("test.reset.histogram");
  Timer& timer = registry().timer("test.reset.timer");
  counter.add(5);
  gauge.set(9);
  histogram.record(16);
  timer.add_ns(100);

  registry().reset();

  // Same objects, zeroed values: cached references survive a reset.
  EXPECT_EQ(&counter, &registry().counter("test.reset.counter"));
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.bucket(5), 0u);
  EXPECT_EQ(timer.total_ns(), 0u);
  EXPECT_EQ(timer.count(), 0u);
}

TEST(Telemetry, SnapshotIsNameSorted) {
  registry().reset();
  registry().counter("test.sort.zebra").add(1);
  registry().counter("test.sort.apple").add(2);
  const Json snapshot = registry().snapshot();
  const auto& counters = snapshot.at("counters").as_object();
  std::string previous;
  for (const auto& [name, value] : counters) {
    EXPECT_LT(previous, name) << "snapshot keys must be sorted";
    previous = name;
  }
  EXPECT_EQ(snapshot.at("counters").at("test.sort.apple").as_uint(), 2u);
  // All four family sections are present even when empty.
  EXPECT_TRUE(snapshot.at("gauges").is_object());
  EXPECT_TRUE(snapshot.at("histograms").is_object());
  EXPECT_TRUE(snapshot.at("timers").is_object());
}

TEST(Telemetry, SnapshotsRaceFirstUseRegistrationSortedAndExact) {
  // Writers register fresh names while readers snapshot: every snapshot
  // must come out name-sorted, and the quiescent totals exact.
  registry().reset();
  constexpr int kWriters = 4;
  constexpr int kNames = 64;
  constexpr std::uint64_t kAdds = 50;
  std::atomic<bool> writing{true};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&writing] {
      do {
        const Registry::Snapshot snap = registry().read_snapshot();
        for (std::size_t k = 1; k < snap.counters.size(); ++k)
          EXPECT_LT(snap.counters[k - 1].first, snap.counters[k].first);
        for (std::size_t k = 1; k < snap.histograms.size(); ++k)
          EXPECT_LT(snap.histograms[k - 1].first, snap.histograms[k].first);
      } while (writing.load());
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (int n = 0; n < kNames; ++n) {
        // Each writer walks the names from its own offset, so first-use
        // registrations of one name race across writers.
        const std::string name = "test.race." + std::to_string((n + w * 17) % kNames);
        for (std::uint64_t a = 0; a < kAdds; ++a) registry().counter(name).add();
        registry().histogram(name).record(static_cast<std::uint64_t>(w));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  writing.store(false);
  for (std::thread& reader : readers) reader.join();

  const Registry::Snapshot snap = registry().read_snapshot();
  int seen = 0;
  for (const auto& [name, value] : snap.counters) {
    if (!name.starts_with("test.race.")) continue;
    ++seen;
    EXPECT_EQ(value, kWriters * kAdds) << name;
  }
  EXPECT_EQ(seen, kNames);
  for (const auto& [name, value] : snap.histograms) {
    if (!name.starts_with("test.race.")) continue;
    EXPECT_EQ(value.count, static_cast<std::uint64_t>(kWriters)) << name;
    EXPECT_EQ(value.sum, 0u + 1u + 2u + 3u) << name;
  }
}

// -------------------------------------------------------------- heartbeat --

TEST(Telemetry, HeartbeatEmitsParseableLines) {
  registry().reset();
  registry().counter("test.beat.events").add(10);

  const std::string path = temp_path("heartbeat_lines.jsonl");
  std::FILE* sink = std::fopen(path.c_str(), "wb");
  ASSERT_NE(sink, nullptr);
  {
    HeartbeatConfig config;
    config.interval_s = 0.002;
    config.out = sink;
    config.run.kind = "unit-test";
    Heartbeat heartbeat(std::move(config));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    registry().counter("test.beat.events").add(90);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    heartbeat.stop();
    EXPECT_GE(heartbeat.beats(), 2u);
  }
  std::fclose(sink);

  std::uint64_t lines = 0, last_seq = 0;
  std::string text = slurp(path);
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = text.find('\n', begin);
    ASSERT_NE(end, std::string::npos) << "every beat line is newline-terminated";
    const Json line = Json::parse(text.substr(begin, end - begin));
    ++lines;
    const std::uint64_t seq = line.at("heartbeat").as_uint();
    EXPECT_EQ(seq, last_seq + 1) << "beat sequence numbers are contiguous";
    last_seq = seq;
    EXPECT_GT(line.at("elapsed_s").as_number(), 0.0);
    EXPECT_EQ(line.at("kind").as_string(), "unit-test");  // the run identity
    EXPECT_EQ(line.at("counters").at("test.beat.events").as_uint() % 10, 0u);
    EXPECT_TRUE(line.at("gauges").is_object());
    EXPECT_TRUE(line.at("rates").is_object());
    begin = end + 1;
  }
  EXPECT_GE(lines, 2u);
}

TEST(Telemetry, HeartbeatZeroIntervalStartsNoThreadButBeatsOnDemand) {
  const std::string path = temp_path("heartbeat_manual.jsonl");
  std::FILE* sink = std::fopen(path.c_str(), "wb");
  ASSERT_NE(sink, nullptr);
  {
    HeartbeatConfig config;
    config.interval_s = 0.0;  // disabled: no background thread
    config.out = sink;
    Heartbeat heartbeat(std::move(config));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(heartbeat.beats(), 0u);
    heartbeat.beat_now();
    EXPECT_EQ(heartbeat.beats(), 1u);
  }
  std::fclose(sink);
  const Json line = Json::parse(slurp(path));
  EXPECT_EQ(line.at("heartbeat").as_uint(), 1u);
}

// ------------------------------------------------------- metrics snapshot --

TEST(Telemetry, MetricsSnapshotShape) {
  registry().reset();
  registry().counter("test.snap.counter").add(3);
  registry().gauge("test.snap.gauge").set(-2);
  registry().histogram("test.snap.histogram").record(5);
  registry().timer("test.snap.timer").add_ns(1234);

  RunInfo manifest;
  manifest.kind = "search";
  manifest.spec = "scenarios/unit.json";
  manifest.fingerprint = "00000000deadbeef";
  manifest.threads = 4;
  manifest.config.set("max_waves", Json(std::uint64_t{7}));

  const Json snapshot = metrics_snapshot(manifest, 12.5);
  EXPECT_EQ(snapshot.at("schema").as_uint(), 1u);
  EXPECT_EQ(snapshot.at("kind").as_string(), "metrics-snapshot");
  const Json& run = snapshot.at("run");
  EXPECT_EQ(run.at("kind").as_string(), "search");
  EXPECT_EQ(run.at("spec").as_string(), "scenarios/unit.json");
  EXPECT_EQ(run.at("fingerprint").as_string(), "00000000deadbeef");
  EXPECT_EQ(run.at("threads").as_uint(), 4u);
  EXPECT_EQ(run.at("config").at("max_waves").as_uint(), 7u);
  EXPECT_FALSE(run.at("build").at("compiler").as_string().empty());
  EXPECT_GT(run.at("build").at("cpp_standard").as_uint(), 201703u);
  EXPECT_FALSE(run.at("build").at("build_type").as_string().empty());
  EXPECT_DOUBLE_EQ(snapshot.at("wall_ms").as_number(), 12.5);
  EXPECT_EQ(snapshot.at("counters").at("test.snap.counter").as_uint(), 3u);
  EXPECT_EQ(snapshot.at("gauges").at("test.snap.gauge").as_int(), -2);
  EXPECT_EQ(snapshot.at("histograms").at("test.snap.histogram").at("count").as_uint(), 1u);
  EXPECT_EQ(snapshot.at("timers").at("test.snap.timer").at("ns").as_uint(), 1234u);

  // The saved snapshot re-parses.
  const std::string path = temp_path("unit_metrics.json");
  metrics_snapshot(manifest, 12.5).save_file(path);
  const Json reloaded = Json::load_file(path);
  EXPECT_EQ(reloaded.at("schema").as_uint(), 1u);
  EXPECT_EQ(reloaded.at("counters").at("test.snap.counter").as_uint(), 3u);
}

TEST(Telemetry, ManifestWithoutExtraOmitsConfig) {
  RunInfo manifest;
  manifest.kind = "campaign";
  manifest.spec = "x.json";
  manifest.fingerprint = "0";
  manifest.threads = 1;
  const Json snapshot = metrics_snapshot(manifest, 0.0);
  EXPECT_EQ(snapshot.at("run").find("config"), nullptr);
}

}  // namespace
}  // namespace aurv::support::telemetry
