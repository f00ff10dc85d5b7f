#include "gatherx/census.hpp"

#include <vector>

#include "agents/sampler.hpp"
#include "exp/registry.hpp"
#include "exp/stream_runner.hpp"
#include "support/check.hpp"

namespace aurv::gatherx {

using support::Json;

namespace {

/// One line per job, compact JSON: the configuration's shape plus one
/// sub-object per configured policy, numbers exactly as in the summary.
std::string jsonl_record(const GatherScenarioSpec& spec, std::uint64_t job,
                         const agents::GatherInstance& instance, bool funnel,
                         const std::vector<gather::GatherResult>& results) {
  Json record = Json::object();
  record.set("job", Json(job));
  record.set("n", Json(static_cast<std::uint64_t>(instance.n())));
  record.set("r", Json(instance.r));
  record.set("funnel", Json(funnel));
  for (std::size_t k = 0; k < spec.policies.size(); ++k) {
    const gather::GatherResult& result = results[k];
    Json entry = Json::object();
    entry.set("gathered", Json(result.gathered));
    entry.set("reason", Json(gather::to_string(result.reason)));
    if (result.gathered) entry.set("gather_time", Json(result.gather_time));
    entry.set("events", Json(result.events));
    entry.set("min_diameter", Json(result.min_diameter_seen));
    entry.set("final_diameter", Json(result.final_diameter));
    record.set(gather::to_string(spec.policies[k]), std::move(entry));
  }
  return record.dump() + "\n";
}

}  // namespace

agents::GatherInstance census_instance(const GatherScenarioSpec& spec, std::uint64_t job) {
  AURV_CHECK_MSG(job < spec.total_jobs(), "census_instance: job out of range");
  const std::uint64_t sample = job / spec.replications;
  static thread_local std::string cached_sampler_name;
  static thread_local exp::GatherSamplerFn cached_sampler;
  if (cached_sampler_name != spec.sampler) {
    cached_sampler = exp::resolve_gather_sampler(spec.sampler);
    cached_sampler_name = spec.sampler;
  }
  agents::SampleRng rng = agents::sample_stream(spec.seed, sample);
  return cached_sampler(rng, spec.ranges);
}

Json CensusResult::summary(const GatherScenarioSpec& spec) const {
  Json json = Json::object();
  json.set("schema", Json(std::uint64_t{1}));
  json.set("kind", Json("gather-census-summary"));
  json.set("scenario", spec.to_json());
  json.set("jobs", Json(jobs));
  json.set("complete", Json(complete));
  json.set("aggregate", aggregate.to_json());
  return json;
}

CensusResult run_census(const GatherScenarioSpec& spec, const CensusOptions& options) {
  // One common program for every agent of every run (instance-blind by the
  // registry contract; shared across shards like the search objective).
  const sim::AlgorithmFactory factory = exp::resolve_common_algorithm(spec.algorithm);

  exp::StreamRunResult<GatherAggregate> stream =
      exp::run_checkpointed_stream<GatherAggregate>(
          "gather-census-checkpoint", spec.fingerprint(), spec.total_jobs(), options,
          [&](std::uint64_t job, GatherAggregate& aggregate, std::string* jsonl) {
            const agents::GatherInstance instance = census_instance(spec, job);
            // n = 1 has no pairs; a lone agent is vacuously a good
            // configuration.
            const bool funnel = instance.n() < 2 ||
                                gather::is_funnel_configuration(instance.agents, instance.r);
            std::vector<gather::GatherResult> runs(spec.policies.size());
            for (std::size_t k = 0; k < spec.policies.size(); ++k) {
              const gather::GatherConfig config =
                  spec.engine_config(spec.policies[k], instance.n(), instance.r);
              runs[k] = gather::GatherEngine(instance.agents, config).run(factory);
              aggregate.add(spec.policies[k], runs[k], funnel);
            }
            if (jsonl != nullptr) *jsonl += jsonl_record(spec, job, instance, funnel, runs);
          });

  CensusResult result;
  result.aggregate = std::move(stream.aggregate);
  result.jobs = stream.jobs;
  result.jobs_run = stream.jobs_run;
  result.resumed_shards = stream.resumed_shards;
  result.complete = stream.complete;
  return result;
}

}  // namespace aurv::gatherx
