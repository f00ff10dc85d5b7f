// Gathering experiment subsystem tests: GatherScenarioSpec JSON round-trip
// and strictness, the gather-sampler registry, per-policy aggregate
// round-trips, lazy configuration generation, and the census runner's
// determinism contract — summaries and JSONL streams byte-identical at any
// thread count and across checkpoint/resume cycles, the PR-2 campaign
// guarantee extended to n-agent gathering.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>

#include "test_paths.hpp"
#include "exp/registry.hpp"
#include "exp/spec_util.hpp"
#include "gatherx/aggregate.hpp"
#include "gatherx/census.hpp"
#include "gatherx/scenario.hpp"
#include "support/json.hpp"

namespace aurv::gatherx {
namespace {

using support::Json;
using testpaths::scenario_path;
using testpaths::slurp;
using testpaths::temp_path;

/// Copy of `json` with `key` replaced (or appended) — Json::set refuses
/// duplicate keys by design, so edited-spec variants are rebuilt.
Json with_key(const Json& json, std::string_view key, Json value) {
  Json out = Json::object();
  bool replaced = false;
  for (const auto& [k, v] : json.as_object()) {
    if (k == key) {
      out.set(k, std::move(value));
      replaced = true;
    } else {
      out.set(k, v);
    }
  }
  if (!replaced) out.set(std::string(key), std::move(value));
  return out;
}

GatherScenarioSpec small_spec() {
  GatherScenarioSpec spec;
  spec.name = "test_census";
  spec.algorithm = "latecomers";
  spec.seed = 7;
  spec.sampler = "disk";
  spec.count = 48;
  spec.ranges.n_min = 2;
  spec.ranges.n_max = 4;
  spec.ranges.wake_max = 5.0;
  spec.max_events = 400'000;
  spec.horizon = numeric::Rational(1024);
  return spec;
}

// ------------------------------------------------------------------- spec --

TEST(GatherScenario, JsonRoundTrip) {
  GatherScenarioSpec spec = small_spec();
  spec.description = "round trip";
  spec.replications = 2;
  spec.policies = {gather::StopPolicy::AllVisible};
  spec.success_diameter = 2.5;
  spec.contact_slack = 1e-8;

  const GatherScenarioSpec reloaded = GatherScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(reloaded.to_json(), spec.to_json());
  EXPECT_EQ(reloaded.fingerprint(), spec.fingerprint());
  EXPECT_EQ(reloaded.name, "test_census");
  EXPECT_EQ(reloaded.replications, 2u);
  ASSERT_EQ(reloaded.policies.size(), 1u);
  EXPECT_EQ(reloaded.policies.front(), gather::StopPolicy::AllVisible);
  EXPECT_EQ(reloaded.ranges.n_max, 4u);
  ASSERT_TRUE(reloaded.success_diameter.has_value());
  EXPECT_EQ(*reloaded.success_diameter, 2.5);
  ASSERT_TRUE(reloaded.horizon.has_value());
  EXPECT_EQ(*reloaded.horizon, numeric::Rational(1024));
  EXPECT_EQ(reloaded.total_jobs(), 96u);
}

TEST(GatherScenario, FingerprintDetectsEdits) {
  const GatherScenarioSpec spec = small_spec();
  GatherScenarioSpec edited = spec;
  edited.seed = 8;
  EXPECT_NE(spec.fingerprint(), edited.fingerprint());
  GatherScenarioSpec fewer_policies = spec;
  fewer_policies.policies = {gather::StopPolicy::FirstSight};
  EXPECT_NE(spec.fingerprint(), fewer_policies.fingerprint());
}

TEST(GatherScenario, StrictParsingRejectsMistakes) {
  const Json valid = small_spec().to_json();

  // Misspelled key.
  EXPECT_THROW((void)GatherScenarioSpec::from_json(
                   with_key(valid, "algorithim", Json("latecomers"))),
               std::invalid_argument);

  EXPECT_THROW((void)GatherScenarioSpec::from_json(with_key(valid, "kind", Json("search"))),
               std::invalid_argument);

  Json bad_policies = Json::array();
  bad_policies.push_back(Json("first-sight"));
  bad_policies.push_back(Json("sometimes"));
  EXPECT_THROW((void)GatherScenarioSpec::from_json(
                   with_key(valid, "policies", std::move(bad_policies))),
               std::invalid_argument);

  Json twice = Json::array();
  twice.push_back(Json("all-visible"));
  twice.push_back(Json("all-visible"));
  EXPECT_THROW(
      (void)GatherScenarioSpec::from_json(with_key(valid, "policies", std::move(twice))),
      std::invalid_argument);

  EXPECT_THROW((void)GatherScenarioSpec::from_json(with_key(
                   valid, "source", with_key(valid.at("source"), "sampler", Json("no-such")))),
               std::invalid_argument);

  EXPECT_THROW((void)GatherScenarioSpec::from_json(with_key(
                   valid, "engine", with_key(valid.at("engine"), "contact_slack", Json(-3.0)))),
               std::invalid_argument);
  EXPECT_THROW((void)GatherScenarioSpec::from_json(with_key(
                   valid, "engine", with_key(valid.at("engine"), "horizon", Json("-3")))),
               std::invalid_argument);
  EXPECT_NO_THROW((void)GatherScenarioSpec::from_json(
      with_key(valid, "engine", with_key(valid.at("engine"), "horizon", Json(0.0)))));

  // Instance-dispatching algorithms cannot drive a gathering run: every
  // agent executes the *common* program, there is no two-agent instance.
  for (const char* instance_aware : {"boundary", "recommended"}) {
    EXPECT_THROW((void)GatherScenarioSpec::from_json(
                     with_key(valid, "algorithm", Json(instance_aware))),
                 std::invalid_argument)
        << instance_aware;
  }
}

TEST(GatherScenario, CommittedScenarioFilesLoad) {
  for (const char* leaf : {"gather_census_smoke.json", "gather_census_funnel.json"}) {
    const GatherScenarioSpec spec = GatherScenarioSpec::load(scenario_path(leaf));
    EXPECT_FALSE(spec.name.empty()) << leaf;
    EXPECT_GE(spec.total_jobs(), 1u) << leaf;
    EXPECT_FALSE(spec.policies.empty()) << leaf;
  }
}

// --------------------------------------------------------------- registry --

TEST(GatherRegistry, EverySamplerNameResolvesAndDraws) {
  const std::vector<std::string> expected = {"disk", "cluster", "ring", "spread"};
  EXPECT_EQ(exp::gather_sampler_names(), expected);
  std::mt19937_64 rng(123);
  agents::GatherSamplerRanges ranges;
  ranges.n_min = 2;
  ranges.n_max = 6;
  for (const std::string& name : exp::gather_sampler_names()) {
    const exp::GatherSamplerFn sampler = exp::resolve_gather_sampler(name);
    ASSERT_TRUE(sampler) << name;
    const agents::GatherInstance instance = sampler(rng, ranges);
    EXPECT_GT(instance.r, 0.0) << name;
    EXPECT_GE(instance.n(), 2u) << name;
    EXPECT_LE(instance.n(), 6u) << name;
    // The earliest agent wakes at 0 by the model convention.
    numeric::Rational earliest = instance.agents.front().wake;
    for (const gather::GatherAgent& agent : instance.agents)
      earliest = std::min(earliest, agent.wake);
    EXPECT_TRUE(earliest.is_zero()) << name;
  }
  EXPECT_THROW((void)exp::resolve_gather_sampler("nope"), std::invalid_argument);
}

TEST(GatherRegistry, CommonAlgorithmRejectsInstanceDispatchingEntries) {
  for (const char* name : {"aurv", "latecomers", "cgkk", "cgkk-ext", "wait-and-search"}) {
    const sim::AlgorithmFactory factory = exp::resolve_common_algorithm(name);
    ASSERT_TRUE(factory) << name;
    (void)factory();  // must produce a program without throwing
  }
  EXPECT_THROW((void)exp::resolve_common_algorithm("boundary"), std::invalid_argument);
  EXPECT_THROW((void)exp::resolve_common_algorithm("recommended"), std::invalid_argument);
  EXPECT_THROW((void)exp::resolve_common_algorithm("nope"), std::invalid_argument);
}

// -------------------------------------------------------------- aggregate --

TEST(GatherAggregate, JsonRoundTripIsLossless) {
  CensusOptions options;
  options.threads = 2;
  const CensusResult result = run_census(small_spec(), options);
  ASSERT_GT(result.aggregate.first_sight.gathered, 0u);
  ASSERT_GT(result.aggregate.all_visible.runs, 0u);
  EXPECT_EQ(GatherAggregate::from_json(result.aggregate.to_json()), result.aggregate);
}

TEST(GatherAggregate, SingleAgentRunsCountAsGatheredAtTimeZero) {
  GatherScenarioSpec spec = small_spec();
  spec.ranges.n_min = 1;
  spec.ranges.n_max = 1;
  spec.count = 8;
  const CensusResult result = run_census(spec);
  for (const gather::StopPolicy policy : spec.policies) {
    const PolicyAggregate& slice = result.aggregate.slice(policy);
    EXPECT_EQ(slice.runs, 8u) << gather::to_string(policy);
    EXPECT_EQ(slice.gathered, 8u) << gather::to_string(policy);
    EXPECT_EQ(slice.gather_time_max, 0.0) << gather::to_string(policy);
    EXPECT_EQ(slice.min_diameter_floor, 0.0) << gather::to_string(policy);
  }
}

// ----------------------------------------------------------------- runner --

TEST(Census, InstanceGenerationIsIndexDeterministic) {
  const GatherScenarioSpec spec = small_spec();
  const agents::GatherInstance a = census_instance(spec, 41);
  const agents::GatherInstance b = census_instance(spec, 3);
  EXPECT_EQ(census_instance(spec, 41).to_string(), a.to_string());
  EXPECT_EQ(census_instance(spec, 3).to_string(), b.to_string());
  EXPECT_NE(a.to_string(), b.to_string());
}

TEST(Census, ReplicationsShareTheSampledConfiguration) {
  GatherScenarioSpec spec = small_spec();
  spec.replications = 4;
  EXPECT_EQ(census_instance(spec, 0).to_string(), census_instance(spec, 3).to_string());
  EXPECT_NE(census_instance(spec, 3).to_string(), census_instance(spec, 4).to_string());
}

TEST(Census, SummaryIsThreadCountInvariant) {
  const GatherScenarioSpec spec = small_spec();
  CensusOptions serial;
  serial.threads = 1;
  serial.shard_size = 8;
  CensusOptions parallel;
  parallel.threads = 8;
  parallel.shard_size = 8;
  const std::string summary_1 = run_census(spec, serial).summary(spec).dump(2);
  const std::string summary_8 = run_census(spec, parallel).summary(spec).dump(2);
  EXPECT_EQ(summary_1, summary_8);  // bit-identical, including double sums
}

TEST(Census, SmokeSummaryBytesArePinned) {
  // FNV-1a digest of the committed smoke census's summary: any change to
  // the engine that moves a single bit of the artifact fails here.
  const GatherScenarioSpec spec =
      GatherScenarioSpec::load(scenario_path("gather_census_smoke.json"));
  CensusOptions options;
  options.threads = 2;
  EXPECT_EQ(exp::fnv1a_fingerprint(run_census(spec, options).summary(spec)),
            0x31bf8e4402be2e9full);
}

TEST(Census, CheckpointResumeMatchesOneShot) {
  const GatherScenarioSpec spec = small_spec();
  const std::string checkpoint = temp_path("gather_ck.json");
  const std::string jsonl = temp_path("gather_runs.jsonl");
  const std::string jsonl_oneshot = temp_path("gather_runs_oneshot.jsonl");
  std::filesystem::remove(checkpoint);

  CensusOptions oneshot;
  oneshot.threads = 4;
  oneshot.shard_size = 8;
  oneshot.jsonl_path = jsonl_oneshot;
  const std::string expected = run_census(spec, oneshot).summary(spec).dump(2);

  // Interrupt mid-run: 48 jobs / shard_size 8 = 6 shards; stop after 2.
  CensusOptions interrupted = oneshot;
  interrupted.jsonl_path = jsonl;
  interrupted.checkpoint_path = checkpoint;
  interrupted.checkpoint_every = 2;
  interrupted.max_shards = 2;
  const CensusResult partial = run_census(spec, interrupted);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.jobs_run, 16u);
  EXPECT_TRUE(std::filesystem::exists(checkpoint));

  CensusOptions resume = interrupted;
  resume.max_shards = 0;
  resume.resume = true;
  resume.threads = 1;  // resume on a different thread count, same summary
  const CensusResult finished = run_census(spec, resume);
  EXPECT_TRUE(finished.complete);
  EXPECT_EQ(finished.resumed_shards, 2u);
  EXPECT_EQ(finished.summary(spec).dump(2), expected);
  EXPECT_EQ(slurp(jsonl), slurp(jsonl_oneshot));  // stream identical too
}

TEST(Census, ResumeRefusesEditedSpecAndCampaignCheckpoints) {
  GatherScenarioSpec spec = small_spec();
  const std::string checkpoint = temp_path("gather_ck_edited.json");
  std::filesystem::remove(checkpoint);
  CensusOptions options;
  options.threads = 2;
  options.shard_size = 8;
  options.checkpoint_path = checkpoint;
  options.max_shards = 2;
  (void)run_census(spec, options);

  spec.seed ^= 1;  // a different census now
  options.resume = true;
  options.max_shards = 0;
  EXPECT_THROW((void)run_census(spec, options), std::invalid_argument);

  // A campaign checkpoint is a different kind — refused, not misread.
  spec.seed ^= 1;
  with_key(Json::load_file(checkpoint), "kind", Json("campaign-checkpoint"))
      .save_file(checkpoint);
  EXPECT_THROW((void)run_census(spec, options), std::invalid_argument);
}

TEST(Census, JsonlRecordsAreWellFormedAndInJobOrder) {
  const GatherScenarioSpec spec = small_spec();
  const std::string jsonl = temp_path("gather_order.jsonl");
  CensusOptions options;
  options.threads = 4;
  options.shard_size = 8;
  options.jsonl_path = jsonl;
  (void)run_census(spec, options);

  std::ifstream in(jsonl);
  std::string line;
  std::uint64_t expected_job = 0;
  while (std::getline(in, line)) {
    const Json record = Json::parse(line);
    EXPECT_EQ(record.at("job").as_uint(), expected_job);
    ++expected_job;
    EXPECT_GE(record.at("n").as_uint(), 2u);
    (void)record.at("funnel").as_bool();
    for (const gather::StopPolicy policy : spec.policies) {
      const Json& entry = record.at(gather::to_string(policy));
      (void)entry.at("gathered").as_bool();
      (void)entry.at("reason").as_string();
      (void)entry.at("events").as_uint();
    }
  }
  EXPECT_EQ(expected_job, spec.total_jobs());
}

}  // namespace
}  // namespace aurv::gatherx
