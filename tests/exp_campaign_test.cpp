// Campaign subsystem tests: spec JSON round-trip, registry completeness,
// thread-count invariance of aggregates, and checkpoint/resume equivalence.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "test_paths.hpp"
#include "exp/aggregate.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/spec_util.hpp"
#include "support/json.hpp"

namespace aurv::exp {
namespace {

using support::Json;
using testpaths::scenario_path;
using testpaths::slurp;
using testpaths::temp_path;

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.name = "test";
  spec.algorithm = "aurv";
  spec.seed = 7;
  spec.sampler = "type2";
  spec.count = 60;
  spec.engine.max_events = 2'000'000;
  return spec;
}

// ------------------------------------------------------------------ spec --

TEST(Scenario, JsonRoundTrip) {
  ScenarioSpec spec = small_spec();
  spec.description = "round trip";
  spec.replications = 3;
  spec.ranges.r_min = 0.75;
  spec.ranges.margin_max = 1.5;
  spec.engine.contact_slack = 1e-8;
  spec.engine.horizon = numeric::Rational::from_string("355/113");
  spec.engine.r_a = 1.25;

  const ScenarioSpec reloaded = ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(reloaded.to_json(), spec.to_json());
  EXPECT_EQ(reloaded.fingerprint(), spec.fingerprint());
  EXPECT_EQ(reloaded.name, "test");
  EXPECT_EQ(reloaded.replications, 3u);
  EXPECT_EQ(reloaded.ranges.r_min, 0.75);
  ASSERT_TRUE(reloaded.engine.horizon.has_value());
  EXPECT_EQ(*reloaded.engine.horizon, numeric::Rational::from_string("355/113"));
  ASSERT_TRUE(reloaded.engine.r_a.has_value());
  EXPECT_EQ(*reloaded.engine.r_a, 1.25);
  EXPECT_EQ(reloaded.total_jobs(), 180u);
}

TEST(Scenario, GridRoundTripPreservesExactRationals) {
  ScenarioSpec spec;
  spec.name = "grid";
  spec.grid.push_back(agents::Instance(1.0, {2.0, 0.6}, 0.25, numeric::Rational(1),
                                       numeric::Rational::from_string("3/2"),
                                       numeric::Rational::from_string("7/3"), -1));
  spec.grid.push_back(agents::Instance::synchronous(2.0, {1.0, 0.5}, 0.0, 0, 1));

  const ScenarioSpec reloaded = ScenarioSpec::from_json(spec.to_json());
  ASSERT_EQ(reloaded.grid.size(), 2u);
  EXPECT_EQ(reloaded.grid[0].v(), numeric::Rational::from_string("3/2"));
  EXPECT_EQ(reloaded.grid[0].t(), numeric::Rational::from_string("7/3"));
  EXPECT_EQ(reloaded.grid[0].chi(), -1);
  EXPECT_EQ(reloaded.grid[0].b_start(), spec.grid[0].b_start());
  EXPECT_EQ(reloaded.to_json(), spec.to_json());
}

TEST(Scenario, FingerprintDetectsEdits) {
  const ScenarioSpec spec = small_spec();
  ScenarioSpec edited = spec;
  edited.seed = 8;
  EXPECT_NE(spec.fingerprint(), edited.fingerprint());
}

TEST(Scenario, StrictParsingRejectsMistakes) {
  const Json valid = small_spec().to_json();

  Json typo = valid;
  typo.set("algorithim", Json("aurv"));  // misspelled key
  EXPECT_THROW((void)ScenarioSpec::from_json(typo), std::invalid_argument);

  EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(
                   R"({"name":"x","source":{"sampler":"type1","count":1,"grid":[]}})")),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(R"({"name":"x","source":{}})")),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(
                   R"({"source":{"sampler":"type1","count":0}})")),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(
                   R"({"source":{"sampler":"no-such","count":1}})")),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(
                   R"({"algorithm":"no-such","source":{"sampler":"type1","count":1}})")),
               std::invalid_argument);
  // A negative contact slack shrinks the contact radius; radius overrides
  // must be positive; a negative horizon ends every run before t = 0. All
  // fail at load, not at job time.
  for (const char* engine : {R"({"contact_slack":-3})", R"({"r_a":0})", R"({"r_b":-1})",
                             R"({"horizon":"-5"})", R"({"horizon":-1})"}) {
    EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(
                     std::string(R"({"source":{"sampler":"type1","count":1},"engine":)") +
                     engine + "}")),
                 std::invalid_argument)
        << engine;
  }
  EXPECT_NO_THROW((void)ScenarioSpec::from_json(Json::parse(
      R"({"source":{"sampler":"type1","count":1},"engine":{"horizon":0}})")));
}

// -------------------------------------------------------------- registry --

TEST(Registry, EveryAlgorithmNameResolvesAndBuildsAProgram) {
  const agents::Instance probe = agents::Instance::synchronous(1.0, {3.0, 4.0}, 0.0, 4, 1);
  const std::vector<std::string> expected = {"aurv",   "latecomers",      "cgkk",    "cgkk-ext",
                                             "wait-and-search", "boundary", "recommended"};
  EXPECT_EQ(algorithm_names(), expected);
  for (const std::string& name : algorithm_names()) {
    const sim::AlgorithmFactory factory = resolve_algorithm(name)(probe);
    ASSERT_TRUE(factory) << name;
    (void)factory();  // must produce a program without throwing
  }
  EXPECT_THROW((void)resolve_algorithm("nope"), std::invalid_argument);
}

TEST(Registry, EverySamplerNameResolvesAndDraws) {
  const std::vector<std::string> expected = {"type1",       "type2",       "type3",     "type4",
                                             "boundary-s1", "boundary-s2", "infeasible"};
  EXPECT_EQ(sampler_names(), expected);
  agents::SampleRng rng(123);
  for (const std::string& name : sampler_names()) {
    const SamplerFn sampler = resolve_sampler(name);
    ASSERT_TRUE(sampler) << name;
    const agents::Instance instance = sampler(rng, {});
    EXPECT_GT(instance.r(), 0.0) << name;
  }
  EXPECT_THROW((void)resolve_sampler("nope"), std::invalid_argument);
}

TEST(Registry, UnknownNameErrorListsKnownNames) {
  try {
    (void)resolve_sampler("typo3");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("type3"), std::string::npos);
  }
}

// ------------------------------------------------------------- aggregate --

TEST(Aggregate, JsonRoundTripIsLossless) {
  CampaignOptions options;
  options.threads = 2;
  const CampaignResult result = run_campaign(small_spec(), options);
  const CampaignAggregate& aggregate = result.aggregate;
  ASSERT_GT(aggregate.met, 0u);
  EXPECT_EQ(CampaignAggregate::from_json(aggregate.to_json()), aggregate);
}

TEST(Aggregate, HistogramAndPercentiles) {
  EXPECT_EQ(meet_time_bucket(1.5), CampaignAggregate::kHistogramOffset);
  EXPECT_EQ(meet_time_bucket(0.75), CampaignAggregate::kHistogramOffset - 1);
  EXPECT_EQ(meet_time_bucket(0.0), 0);

  CampaignAggregate aggregate;
  sim::SimResult run;
  run.met = true;
  run.reason = sim::StopReason::Rendezvous;
  for (int k = 0; k < 99; ++k) {
    run.meet_time = 1.5;  // bucket upper edge 2
    aggregate.add(run);
  }
  run.meet_time = 1000.0;  // one huge outlier
  aggregate.add(run);
  EXPECT_EQ(aggregate.time_percentile(0.50), 2.0);
  EXPECT_EQ(aggregate.time_percentile(0.99), 2.0);
  EXPECT_EQ(aggregate.time_percentile(1.0), 1024.0);
  EXPECT_EQ(aggregate.time_min, 1.5);
  EXPECT_EQ(aggregate.time_max, 1000.0);
}

// ---------------------------------------------------------------- runner --

TEST(Campaign, InstanceGenerationIsIndexDeterministic) {
  const ScenarioSpec spec = small_spec();
  // Same (spec, job) -> identical instance, in any call order.
  const agents::Instance a = campaign_instance(spec, 41);
  const agents::Instance b = campaign_instance(spec, 3);
  EXPECT_EQ(campaign_instance(spec, 41).to_string(), a.to_string());
  EXPECT_EQ(campaign_instance(spec, 3).to_string(), b.to_string());
  EXPECT_NE(a.to_string(), b.to_string());
}

TEST(Campaign, ReplicationsShareTheSampledInstance) {
  ScenarioSpec spec = small_spec();
  spec.replications = 4;
  EXPECT_EQ(campaign_instance(spec, 0).to_string(), campaign_instance(spec, 3).to_string());
  EXPECT_NE(campaign_instance(spec, 3).to_string(), campaign_instance(spec, 4).to_string());
}

TEST(Campaign, SummaryIsThreadCountInvariant) {
  const ScenarioSpec spec = small_spec();
  CampaignOptions serial;
  serial.threads = 1;
  serial.shard_size = 16;
  CampaignOptions parallel;
  parallel.threads = 8;
  parallel.shard_size = 16;
  const std::string summary_1 = run_campaign(spec, serial).summary(spec).dump(2);
  const std::string summary_8 = run_campaign(spec, parallel).summary(spec).dump(2);
  EXPECT_EQ(summary_1, summary_8);  // bit-identical, including double sums
}

TEST(Campaign, SmokeSummaryBytesArePinned) {
  // FNV-1a digest of the committed smoke campaign's summary: any change to
  // the engine that moves a single bit of the artifact fails here.
  const ScenarioSpec spec = ScenarioSpec::load(scenario_path("smoke_type2.json"));
  CampaignOptions options;
  options.threads = 2;
  EXPECT_EQ(fnv1a_fingerprint(run_campaign(spec, options).summary(spec)), 0x6fd3ca50ec89d88full);
}

TEST(Campaign, Type3SummaryBytesArePinned) {
  // The smoke pin runs only unit clocks (tau = 1); type-3 instances have
  // tau != 1, so B's instruction times still take the clock-unit product.
  const ScenarioSpec spec = ScenarioSpec::load(scenario_path("type3_census.json"));
  CampaignOptions options;
  options.threads = 2;
  EXPECT_EQ(fnv1a_fingerprint(run_campaign(spec, options).summary(spec)), 0xbaa85eb44cc23850ull);
}

TEST(Scenario, CommittedScenarioLoadsFromAnyWorkingDirectory) {
  // scenario_path is anchored at the source tree, not at the working dir.
  const std::filesystem::path previous = std::filesystem::current_path();
  std::filesystem::current_path(::testing::TempDir());
  const std::string path = scenario_path("smoke_type2.json");
  ScenarioSpec spec;
  EXPECT_NO_THROW(spec = ScenarioSpec::load(path)) << path;
  std::filesystem::current_path(previous);
  EXPECT_EQ(spec.name, "smoke_type2");
}

TEST(Campaign, GridModeRunsEveryInstance) {
  ScenarioSpec spec;
  spec.name = "grid";
  spec.grid.push_back(agents::Instance::synchronous(2.0, {1.0, 0.0}, 0.0, 0, 1));
  spec.grid.push_back(agents::Instance::synchronous(2.0, {0.5, 0.5}, 0.0, 0, 1));
  spec.replications = 2;
  CampaignOptions options;
  options.threads = 2;
  const CampaignResult result = run_campaign(spec, options);
  EXPECT_EQ(result.jobs, 4u);
  EXPECT_EQ(result.aggregate.runs, 4u);
  EXPECT_EQ(result.aggregate.met, 4u);  // trivial overlaps all meet
}

TEST(Campaign, CheckpointResumeMatchesOneShot) {
  const ScenarioSpec spec = small_spec();
  const std::string checkpoint = temp_path("campaign_ck.json");
  const std::string jsonl = temp_path("campaign_runs.jsonl");
  const std::string jsonl_oneshot = temp_path("campaign_runs_oneshot.jsonl");
  std::filesystem::remove(checkpoint);

  CampaignOptions oneshot;
  oneshot.threads = 4;
  oneshot.shard_size = 8;
  oneshot.jsonl_path = jsonl_oneshot;
  const std::string expected = run_campaign(spec, oneshot).summary(spec).dump(2);

  // Interrupt mid-run: 60 jobs / shard_size 8 = 8 shards; stop after 3.
  CampaignOptions interrupted = oneshot;
  interrupted.jsonl_path = jsonl;
  interrupted.checkpoint_path = checkpoint;
  interrupted.checkpoint_every = 2;
  interrupted.max_shards = 3;
  const CampaignResult partial = run_campaign(spec, interrupted);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.jobs_run, 24u);
  EXPECT_TRUE(std::filesystem::exists(checkpoint));

  CampaignOptions resume = interrupted;
  resume.max_shards = 0;
  resume.resume = true;
  resume.threads = 1;  // resume on a different thread count, same summary
  const CampaignResult finished = run_campaign(spec, resume);
  EXPECT_TRUE(finished.complete);
  EXPECT_EQ(finished.resumed_shards, 3u);
  EXPECT_EQ(finished.summary(spec).dump(2), expected);
  EXPECT_EQ(slurp(jsonl), slurp(jsonl_oneshot));  // stream identical too
}

TEST(Campaign, ResumeRefusesADifferentJsonlPath) {
  const ScenarioSpec spec = small_spec();
  const std::string checkpoint = temp_path("campaign_ck_jsonl.json");
  std::filesystem::remove(checkpoint);
  CampaignOptions options;
  options.threads = 2;
  options.shard_size = 8;
  options.checkpoint_path = checkpoint;
  options.jsonl_path = temp_path("campaign_a.jsonl");
  options.max_shards = 2;
  (void)run_campaign(spec, options);

  options.resume = true;
  options.max_shards = 0;
  options.jsonl_path = temp_path("campaign_b.jsonl");  // would truncate the wrong file
  EXPECT_THROW((void)run_campaign(spec, options), std::invalid_argument);
}

TEST(Campaign, ResumeRefusesEditedSpec) {
  ScenarioSpec spec = small_spec();
  const std::string checkpoint = temp_path("campaign_ck_edited.json");
  std::filesystem::remove(checkpoint);
  CampaignOptions options;
  options.threads = 2;
  options.shard_size = 8;
  options.checkpoint_path = checkpoint;
  options.max_shards = 2;
  (void)run_campaign(spec, options);

  spec.seed ^= 1;  // a different campaign now
  options.resume = true;
  options.max_shards = 0;
  EXPECT_THROW((void)run_campaign(spec, options), std::invalid_argument);
}

TEST(Campaign, JsonlRecordsAreWellFormedAndInJobOrder) {
  const ScenarioSpec spec = small_spec();
  const std::string jsonl = temp_path("campaign_order.jsonl");
  CampaignOptions options;
  options.threads = 4;
  options.shard_size = 8;
  options.jsonl_path = jsonl;
  (void)run_campaign(spec, options);

  std::ifstream in(jsonl);
  std::string line;
  std::uint64_t expected_job = 0;
  while (std::getline(in, line)) {
    const Json record = Json::parse(line);
    EXPECT_EQ(record.at("job").as_uint(), expected_job);
    ++expected_job;
    (void)record.at("reason").as_string();
    (void)record.at("events").as_uint();
  }
  EXPECT_EQ(expected_job, spec.total_jobs());
}

TEST(Campaign, ProgressReportsMonotonicallyToTotal) {
  const ScenarioSpec spec = small_spec();
  CampaignOptions options;
  options.threads = 4;
  options.shard_size = 16;
  std::vector<std::uint64_t> seen;
  options.progress = [&](std::uint64_t done, std::uint64_t total) {
    EXPECT_EQ(total, spec.total_jobs());
    seen.push_back(done);
  };
  (void)run_campaign(spec, options);
  ASSERT_FALSE(seen.empty());
  for (std::size_t k = 1; k < seen.size(); ++k) EXPECT_GT(seen[k], seen[k - 1]);
  EXPECT_EQ(seen.back(), spec.total_jobs());
}

}  // namespace
}  // namespace aurv::exp
