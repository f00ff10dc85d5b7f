#include "exp/runner.hpp"


#include "agents/sampler.hpp"
#include "exp/registry.hpp"
#include "exp/stream_runner.hpp"
#include "support/check.hpp"

namespace aurv::exp {

using support::Json;

namespace {

/// One line per run, compact JSON, numbers exactly as in the summary.
std::string jsonl_record(std::uint64_t job, const sim::SimResult& result) {
  Json record = Json::object();
  record.set("job", Json(job));
  record.set("met", Json(result.met));
  record.set("reason", Json(sim::to_string(result.reason)));
  if (result.met) record.set("meet_time", Json(result.meet_time));
  record.set("events", Json(result.events));
  record.set("min_distance", Json(result.min_distance_seen));
  return record.dump() + "\n";
}

}  // namespace

agents::Instance campaign_instance(const ScenarioSpec& spec, std::uint64_t job) {
  AURV_CHECK_MSG(job < spec.total_jobs(), "campaign_instance: job out of range");
  const std::uint64_t sample = job / spec.replications;
  if (spec.sampler.empty()) return spec.grid[static_cast<std::size_t>(sample)];
  static thread_local std::string cached_sampler_name;
  static thread_local SamplerFn cached_sampler;
  if (cached_sampler_name != spec.sampler) {
    cached_sampler = resolve_sampler(spec.sampler);
    cached_sampler_name = spec.sampler;
  }
  agents::SampleRng rng = agents::sample_stream(spec.seed, sample);
  return cached_sampler(rng, spec.ranges);
}

CampaignResult run_campaign(const ScenarioSpec& spec, const CampaignOptions& options) {
  const AlgorithmResolver resolver = resolve_algorithm(spec.algorithm);
  return run_checkpointed_stream<CampaignAggregate>(
      spec, options, [&](std::uint64_t job, CampaignAggregate& aggregate, std::string* jsonl) {
        const agents::Instance instance = campaign_instance(spec, job);
        const sim::SimResult run = sim::Engine(instance, spec.engine).run(resolver(instance));
        aggregate.add(run);
        if (jsonl != nullptr) *jsonl += jsonl_record(job, run);
      });
}

}  // namespace aurv::exp
