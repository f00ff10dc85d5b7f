// The telemetry layer's hard invariant, enforced end to end: every
// deterministic artifact (search certificates, incumbent logs, campaign
// JSONL streams and summaries) is byte-identical with telemetry observers
// on, off, or at any heartbeat interval, and at any worker count — only
// the metrics sink and stderr may carry wall-clock values. Also checks
// that real runs actually populate the counters the snapshot schema
// promises (nonzero engine.* / search.* / runner.*), that the drivers
// refuse a heartbeat interval that would flood stderr, and that every
// aurv_sweep command records its identity and times each phase once.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "test_paths.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/search_driver.hpp"
#include "support/telemetry.hpp"

namespace aurv {
namespace {

namespace telemetry = support::telemetry;
using exp::SearchSpec;
using numeric::Rational;
using search::BnbOptions;
using support::Json;
using testpaths::fresh_dir;
using testpaths::scenario_path;
using testpaths::slurp;
using testpaths::temp_path;

/// The same fast tuple-space spec the spill/bnb determinism tests use:
/// 48 boxes in waves of 8 — several waves, several incumbents.
SearchSpec search_spec() {
  SearchSpec spec;
  spec.name = "test_telemetry_search";
  spec.algorithm = "aurv";
  spec.objective = "max-meet-time";
  spec.space.family = search::SearchSpace::Family::Tuple;
  spec.space.chi = -1;
  spec.space.fixed = {{"r", Rational(1)},
                      {"y", Rational(numeric::BigInt(6), numeric::BigInt(5))},
                      {"phi", Rational(0)}};
  spec.space.dim_names = {"x", "t"};
  spec.box = {search::Interval{Rational(numeric::BigInt(3), numeric::BigInt(2)),
                               Rational(numeric::BigInt(7), numeric::BigInt(2))},
              search::Interval{Rational(0), Rational(3)}};
  spec.limits.max_boxes = 48;
  spec.limits.wave_size = 8;
  spec.limits.min_width = Rational(numeric::BigInt(1), numeric::BigInt(64));
  spec.engine.max_events = 2'000'000;
  spec.engine.horizon = Rational(256);
  return spec;
}

exp::ScenarioSpec campaign_spec() {
  exp::ScenarioSpec spec;
  spec.name = "test_telemetry_campaign";
  spec.algorithm = "aurv";
  spec.seed = 7;
  spec.sampler = "type2";
  spec.count = 60;
  spec.engine.max_events = 2'000'000;
  return spec;
}

/// Every registered counter's current value, by name.
std::map<std::string, std::uint64_t> counters_now() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : telemetry::registry().read_snapshot().counters)
    out.emplace(name, value);
  return out;
}

/// A discarding heartbeat sink: observation pressure without terminal spam.
class NullSink {
 public:
  NullSink() : file_(std::fopen(testpaths::temp_path("telemetry_null.jsonl").c_str(), "wb")) {}
  ~NullSink() {
    if (file_ != nullptr) std::fclose(file_);
  }
  [[nodiscard]] std::FILE* get() const { return file_; }

 private:
  std::FILE* file_;
};

// --------------------------------------------------- search byte-identity --

TEST(TelemetryDeterminism, SearchArtifactsIdenticalUnderObservation) {
  const SearchSpec spec = search_spec();

  // Baseline: telemetry idle (registry exists but no heartbeat), 1 shard.
  telemetry::registry().reset();
  BnbOptions plain;
  plain.max_shards = 1;
  plain.incumbent_log_path = temp_path("telemetry_plain.jsonl");
  const exp::SearchRunResult baseline = exp::run_search(spec, plain);
  const std::string baseline_certificate = baseline.certificate(spec).dump(2);
  const std::string baseline_log = slurp(plain.incumbent_log_path);

  // Observed: 4 shards, an aggressive heartbeat hammering the registry
  // mid-run, spill enabled, and a metrics snapshot written at the end.
  telemetry::registry().reset();
  BnbOptions observed;
  observed.max_shards = 4;
  observed.incumbent_log_path = temp_path("telemetry_observed.jsonl");
  observed.spill_dir = fresh_dir("telemetry_spill");
  observed.frontier_mem = 2;
  NullSink sink;
  ASSERT_NE(sink.get(), nullptr);
  {
    telemetry::HeartbeatConfig config;
    config.interval_s = 0.001;  // far faster than production: maximum interference
    config.out = sink.get();
    telemetry::Heartbeat heartbeat(std::move(config));
    const exp::SearchRunResult result = exp::run_search(spec, observed);
    heartbeat.stop();
    EXPECT_EQ(result.certificate(spec).dump(2), baseline_certificate);
  }
  EXPECT_EQ(slurp(observed.incumbent_log_path), baseline_log);

  // The run populated the counter families the snapshot schema promises.
  const auto counters = counters_now();
  const auto nonzero = [&](const char* name) {
    const auto it = counters.find(name);
    return it != counters.end() && it->second > 0;
  };
  EXPECT_TRUE(nonzero("engine.runs"));
  EXPECT_TRUE(nonzero("engine.events"));
  EXPECT_TRUE(nonzero("search.waves"));
  EXPECT_TRUE(nonzero("search.evaluated"));
  EXPECT_TRUE(nonzero("search.improvements"));
  EXPECT_TRUE(nonzero("spill.segments")) << "frontier_mem=2 must spill";

  // And the snapshot of this run validates structurally.
  telemetry::RunInfo manifest;
  manifest.kind = "search";
  manifest.spec = "inline";
  manifest.fingerprint = "0";
  manifest.threads = 4;
  const Json snapshot = telemetry::metrics_snapshot(manifest, 1.0);
  EXPECT_EQ(snapshot.at("schema").as_uint(), 1u);
  EXPECT_GT(snapshot.at("counters").at("engine.runs").as_uint(), 0u);
}

TEST(TelemetryDeterminism, SearchCountersAreThreadCountInvariant) {
  const SearchSpec spec = search_spec();

  telemetry::registry().reset();
  BnbOptions serial;
  serial.max_shards = 1;
  (void)exp::run_search(spec, serial);
  const auto counters_serial = counters_now();

  telemetry::registry().reset();
  BnbOptions parallel;
  parallel.max_shards = 4;
  (void)exp::run_search(spec, parallel);
  const auto counters_parallel = counters_now();

  EXPECT_EQ(counters_serial, counters_parallel)
      << "counter totals are part of the determinism contract";
}

// -------------------------------------------------- campaign byte-identity --

TEST(TelemetryDeterminism, CampaignArtifactsIdenticalUnderObservation) {
  const exp::ScenarioSpec spec = campaign_spec();

  telemetry::registry().reset();
  exp::CampaignOptions plain;
  plain.threads = 1;
  plain.shard_size = 16;
  plain.jsonl_path = temp_path("telemetry_campaign_plain.jsonl");
  const exp::CampaignResult baseline = exp::run_campaign(spec, plain);
  const std::string baseline_summary = baseline.summary(spec).dump(2);
  const std::string baseline_jsonl = slurp(plain.jsonl_path);

  telemetry::registry().reset();
  exp::CampaignOptions observed;
  observed.threads = 4;
  observed.shard_size = 16;
  observed.jsonl_path = temp_path("telemetry_campaign_observed.jsonl");
  observed.checkpoint_path = temp_path("telemetry_campaign_ckpt.json");
  observed.checkpoint_every = 1;
  NullSink sink;
  ASSERT_NE(sink.get(), nullptr);
  {
    telemetry::HeartbeatConfig config;
    config.interval_s = 0.001;
    config.out = sink.get();
    telemetry::Heartbeat heartbeat(std::move(config));
    const exp::CampaignResult result = exp::run_campaign(spec, observed);
    heartbeat.stop();
    EXPECT_EQ(result.summary(spec).dump(2), baseline_summary);
  }
  EXPECT_EQ(slurp(observed.jsonl_path), baseline_jsonl);

  const auto counters = counters_now();
  EXPECT_EQ(counters.at("runner.jobs"), 60u);
  EXPECT_EQ(counters.at("runner.shards"), 4u);  // 60 jobs / shard_size 16
  EXPECT_GT(counters.at("runner.checkpoints"), 0u);
  EXPECT_GT(counters.at("engine.runs"), 0u);
}

TEST(TelemetryDeterminism, SharedBytesGaugeSurvivesARegistryReset) {
  // The Algorithm 1 phases stay built across a reset; the next program
  // start restores their byte count, so a second campaign in the same
  // process reads the gauge the first one did.
  const exp::ScenarioSpec spec = campaign_spec();
  exp::CampaignOptions options;
  options.threads = 2;
  options.shard_size = 16;
  (void)exp::run_campaign(spec, options);
  const std::int64_t first = telemetry::registry().gauge("program.shared_bytes").value();
  EXPECT_GT(first, 0);
  telemetry::registry().reset();
  ASSERT_EQ(telemetry::registry().gauge("program.shared_bytes").value(), 0);
  (void)exp::run_campaign(spec, options);
  EXPECT_EQ(telemetry::registry().gauge("program.shared_bytes").value(), first);
}

TEST(TelemetryDeterminism, CampaignCountersAreThreadCountInvariant) {
  // The runner adds shard tallies in its in-order completion hook, so
  // every counter, gauge and histogram of a campaign's metrics snapshot
  // ends the same at any worker count. Each run is its own process: the
  // shared Algorithm 1 phases (`program.shared_bytes`) are built once per
  // process.
  const std::string sweep = testpaths::sweep_binary();
  if (!std::filesystem::exists(sweep)) GTEST_SKIP() << "aurv_sweep not built: " << sweep;
  const std::string dir = fresh_dir("telemetry_campaign_threads");
  const auto snapshot_at = [&](const char* threads) {
    const std::string metrics = dir + "/metrics_" + threads + ".json";
    const std::string command = sweep + " run " + scenario_path("smoke_type2.json") +
                                " --threads " + threads + " --shard-size 8 --quiet --out " +
                                dir + "/summary.json --metrics-out " + metrics;
    EXPECT_EQ(std::system(command.c_str()), 0) << command;
    return Json::load_file(metrics);
  };
  const Json serial = snapshot_at("1");
  const Json parallel = snapshot_at("4");
  for (const char* family : {"counters", "gauges", "histograms"}) {
    EXPECT_EQ(serial.at(family), parallel.at(family))
        << family << "\n" << serial.at(family).dump() << "\n" << parallel.at(family).dump();
  }
  EXPECT_GT(serial.at("counters").at("runner.jobs").as_uint(), 0u);
  // The window cull's count is compared with the rest; it must be live.
  EXPECT_GT(serial.at("counters").at("engine.windows_culled").as_uint(), 0u);
  EXPECT_GT(serial.at("gauges").at("program.shared_bytes").as_int(), 0);
}

// ------------------------------------------------------- heartbeat flag --

TEST(TelemetryCli, ProgressOutsideItsRangeExitsThreeWithoutABeat) {
  // Below a millisecond the heartbeat floods stderr, and past 1e6 s its
  // interval overflows the steady clock: the driver refuses both up front.
  const std::string sweep = testpaths::sweep_binary();
  if (!std::filesystem::exists(sweep)) GTEST_SKIP() << "aurv_sweep not built: " << sweep;
  const std::string dir = fresh_dir("telemetry_cli_progress");
  const std::string stderr_path = dir + "/stderr.txt";
  for (const char* interval : {"1e300", "1e-12", "0.0009", "1000001"}) {
    const std::string command = sweep + " run " + scenario_path("smoke_type2.json") +
                                " --progress " + interval + " --quiet --out " + dir +
                                "/out.json 2> " + stderr_path;
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << interval;
    EXPECT_EQ(WEXITSTATUS(status), 3) << interval;
    const std::string text = slurp(stderr_path);
    EXPECT_EQ(text.find("error: "), 0u) << text;
    EXPECT_EQ(text.find('\n'), text.size() - 1) << "one stderr line: " << text;
    EXPECT_EQ(text.find("heartbeat"), std::string::npos) << text;
  }
  // 0 still means off: the run succeeds and beats nothing.
  const std::string command = sweep + " run " + scenario_path("smoke_type2.json") +
                              " --progress 0 --quiet --out " + dir + "/out.json 2> " +
                              stderr_path;
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(slurp(stderr_path).find("heartbeat"), std::string::npos);
}

TEST(TelemetryCli, InvalidCountOptionsExitThreeBeforeAnyInternalCheck) {
  // Option values the library would reject with an internal AURV_CHECK
  // (whose message names a source line) are refused while the flags are
  // parsed, with one stable "error:" line.
  const std::string sweep = testpaths::sweep_binary();
  if (!std::filesystem::exists(sweep)) GTEST_SKIP() << "aurv_sweep not built: " << sweep;
  const std::string dir = fresh_dir("telemetry_cli_counts");
  const std::string stderr_path = dir + "/stderr.txt";
  const std::string search = " search " + scenario_path("search_smoke.json");
  const std::string run = " run " + scenario_path("smoke_type2.json");
  for (const std::string& args :
       {search + " --frontier-mem 4", search + " --spill-dir " + dir + "/spill --spill-segments 0",
        search + " --compact-every 0", search + " --checkpoint-every 0",
        run + " --shard-size 0", run + " --checkpoint-every 0"}) {
    const std::string command =
        sweep + args + " --quiet --out " + dir + "/out.json 2> " + stderr_path;
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 3) << args;
    const std::string text = slurp(stderr_path);
    EXPECT_EQ(text.find("error: "), 0u) << text;
    EXPECT_EQ(text.find('\n'), text.size() - 1) << "one stderr line: " << text;
    EXPECT_EQ(text.find("AURV_CHECK"), std::string::npos) << text;
  }
}

TEST(TelemetryCli, EveryCommandRecordsItsIdentityAndTimesEachPhaseOnce) {
  // Campaigns, gathering censuses and searches go through one observed
  // lifecycle: each snapshot names the run's kind and shape, times load,
  // run and emit exactly once, and the exit code says whether the run
  // reached its end (0) or stopped early (4).
  const std::string sweep = testpaths::sweep_binary();
  if (!std::filesystem::exists(sweep)) GTEST_SKIP() << "aurv_sweep not built: " << sweep;
  const std::string dir = fresh_dir("telemetry_cli_lifecycle");
  const std::vector<std::string> run_config = {"shard_size", "checkpoint_every", "resume"};
  const std::vector<std::string> search_config = {"max_waves", "spill_dir", "frontier_mem",
                                                  "resume"};
  struct Case {
    std::string command;
    std::string spec;
    std::string flags;
    std::string kind;
    const std::vector<std::string>& config;
    int exit_code;
  };
  // smoke_type2 has 64 jobs and gather_census_smoke 200, so one shard of
  // 8 stops both early; search_smoke evaluates 48 boxes in waves of 8.
  const Case cases[] = {
      {"run", "smoke_type2.json", "", "campaign", run_config, 0},
      {"run", "smoke_type2.json", " --shard-size 8 --max-shards 1", "campaign", run_config, 4},
      {"run", "gather_census_smoke.json", "", "gather-census", run_config, 0},
      {"run", "gather_census_smoke.json", " --shard-size 8 --max-shards 1", "gather-census",
       run_config, 4},
      {"search", "search_smoke.json", "", "search", search_config, 0},
      {"search", "search_smoke.json", " --max-waves 1", "search", search_config, 4},
  };
  for (const Case& c : cases) {
    const std::string metrics = dir + "/metrics.json";
    std::filesystem::remove(metrics);
    const std::string command = sweep + " " + c.command + " " + scenario_path(c.spec) +
                                c.flags + " --quiet --out " + dir + "/out.json --metrics-out " +
                                metrics;
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), c.exit_code) << command;
    const Json snapshot = Json::load_file(metrics);
    const Json& run = snapshot.at("run");
    EXPECT_EQ(run.at("kind").as_string(), c.kind) << command;
    EXPECT_EQ(run.at("config").as_object().size(), c.config.size()) << run.dump();
    for (const std::string& key : c.config)
      EXPECT_NE(run.at("config").find(key), nullptr) << key << ": " << run.dump();
    for (const char* phase : {"phase.load", "phase.run", "phase.emit"})
      EXPECT_EQ(snapshot.at("timers").at(phase).at("count").as_uint(), 1u)
          << phase << ": " << command;
  }
}

}  // namespace
}  // namespace aurv
