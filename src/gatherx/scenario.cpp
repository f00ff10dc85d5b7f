#include "gatherx/scenario.hpp"

#include <stdexcept>

#include "exp/registry.hpp"
#include "exp/spec_util.hpp"
#include "support/check.hpp"

namespace aurv::gatherx {

using exp::check_keys;
using exp::rational_from;
using exp::rational_to;
using support::Json;

namespace {

agents::GatherSamplerRanges ranges_from(const Json& json) {
  check_keys(json,
             {"n_min", "n_max", "r_min", "r_max", "spread_min", "spread_max", "wake_max"},
             "source.ranges");
  agents::GatherSamplerRanges ranges;
  ranges.n_min = static_cast<std::uint32_t>(json.uint_or("n_min", ranges.n_min));
  ranges.n_max = static_cast<std::uint32_t>(json.uint_or("n_max", ranges.n_max));
  ranges.r_min = json.number_or("r_min", ranges.r_min);
  ranges.r_max = json.number_or("r_max", ranges.r_max);
  ranges.spread_min = json.number_or("spread_min", ranges.spread_min);
  ranges.spread_max = json.number_or("spread_max", ranges.spread_max);
  ranges.wake_max = json.number_or("wake_max", ranges.wake_max);
  if (ranges.n_min < 1) throw std::invalid_argument("gather scenario: n_min must be >= 1");
  if (ranges.n_max < ranges.n_min)
    throw std::invalid_argument("gather scenario: n_max must be >= n_min");
  if (!(ranges.r_min > 0.0) || ranges.r_max < ranges.r_min)
    throw std::invalid_argument("gather scenario: need 0 < r_min <= r_max");
  if (ranges.spread_max < ranges.spread_min)
    throw std::invalid_argument("gather scenario: spread_max must be >= spread_min");
  if (ranges.wake_max < 0.0)
    throw std::invalid_argument("gather scenario: wake_max must be >= 0");
  return ranges;
}

Json ranges_to(const agents::GatherSamplerRanges& ranges) {
  Json json = Json::object();
  json.set("n_min", Json(static_cast<std::uint64_t>(ranges.n_min)));
  json.set("n_max", Json(static_cast<std::uint64_t>(ranges.n_max)));
  json.set("r_min", Json(ranges.r_min));
  json.set("r_max", Json(ranges.r_max));
  json.set("spread_min", Json(ranges.spread_min));
  json.set("spread_max", Json(ranges.spread_max));
  json.set("wake_max", Json(ranges.wake_max));
  return json;
}

}  // namespace

std::uint64_t GatherScenarioSpec::total_jobs() const {
  AURV_CHECK_MSG(replications == 0 || count <= UINT64_MAX / replications,
                 "gather scenario: count x replications overflows");
  return count * replications;
}

gather::GatherConfig GatherScenarioSpec::engine_config(gather::StopPolicy policy,
                                                       std::size_t n, double r) const {
  gather::GatherConfig config;
  config.r = r;
  config.policy = policy;
  config.success_diameter =
      success_diameter ? *success_diameter : gather::default_success_diameter(policy, n, r);
  config.contact_slack = contact_slack;
  config.max_events = max_events;
  config.horizon = horizon;
  return config;
}

GatherScenarioSpec GatherScenarioSpec::from_json(const Json& json) {
  check_keys(json,
             {"schema", "kind", "name", "description", "algorithm", "seed", "replications",
              "policies", "source", "engine"},
             "gather scenario");
  const std::uint64_t schema = json.uint_or("schema", 1);
  if (schema != 1)
    throw std::invalid_argument("gather scenario: unsupported schema " +
                                std::to_string(schema));
  if (json.string_or("kind", "") != kKind)
    throw std::invalid_argument("gather scenario: \"kind\" must be \"gather-census\"");

  GatherScenarioSpec spec;
  spec.name = json.string_or("name", "");
  spec.description = json.string_or("description", "");
  spec.algorithm = json.string_or("algorithm", "latecomers");
  spec.seed = json.uint_or("seed", 0);
  spec.replications = json.uint_or("replications", 1);
  if (spec.replications == 0)
    throw std::invalid_argument("gather scenario: replications must be >= 1");

  if (const Json* policies = json.find("policies")) {
    spec.policies.clear();
    for (const Json& entry : policies->as_array())
      spec.policies.push_back(gather::policy_from_string(entry.as_string()));
    if (spec.policies.empty())
      throw std::invalid_argument("gather scenario: policies must not be empty");
    for (std::size_t i = 0; i < spec.policies.size(); ++i)
      for (std::size_t j = i + 1; j < spec.policies.size(); ++j)
        if (spec.policies[i] == spec.policies[j])
          throw std::invalid_argument("gather scenario: duplicate policy \"" +
                                      gather::to_string(spec.policies[i]) + "\"");
  }

  const Json& source = json.at("source");
  check_keys(source, {"sampler", "count", "ranges"}, "source");
  spec.sampler = source.at("sampler").as_string();
  spec.count = source.at("count").as_uint();
  if (spec.count == 0)
    throw std::invalid_argument("gather scenario: source.count must be >= 1");
  if (const Json* ranges = source.find("ranges")) spec.ranges = ranges_from(*ranges);

  if (const Json* engine = json.find("engine")) {
    check_keys(*engine, {"max_events", "contact_slack", "horizon", "success_diameter"},
               "engine");
    spec.max_events = engine->uint_or("max_events", spec.max_events);
    spec.contact_slack = engine->number_or("contact_slack", spec.contact_slack);
    if (spec.contact_slack < 0.0)
      throw std::invalid_argument("gather scenario: contact_slack must be >= 0");
    if (const Json* horizon = engine->find("horizon");
        horizon != nullptr && !horizon->is_null()) {
      spec.horizon = rational_from(*horizon, "horizon");
      if (spec.horizon->is_negative())
        throw std::invalid_argument("gather scenario: horizon must be >= 0");
    }
    if (const Json* diameter = engine->find("success_diameter");
        diameter != nullptr && !diameter->is_null()) {
      spec.success_diameter = diameter->as_number();
      if (!(*spec.success_diameter > 0.0))
        throw std::invalid_argument("gather scenario: success_diameter must be positive");
    }
  }

  // Fail at load time, not at job 0: the sampler must resolve and the
  // algorithm must be a common (instance-blind) program.
  (void)exp::resolve_gather_sampler(spec.sampler);
  (void)exp::resolve_common_algorithm(spec.algorithm);
  return spec;
}

Json GatherScenarioSpec::to_json() const {
  Json json = Json::object();
  json.set("schema", Json(std::uint64_t{1}));
  json.set("kind", Json(kKind));
  json.set("name", Json(name));
  if (!description.empty()) json.set("description", Json(description));
  json.set("algorithm", Json(algorithm));
  json.set("seed", Json(seed));
  json.set("replications", Json(replications));
  Json policies_json = Json::array();
  for (const gather::StopPolicy policy : policies)
    policies_json.push_back(Json(gather::to_string(policy)));
  json.set("policies", std::move(policies_json));
  Json source = Json::object();
  source.set("sampler", Json(sampler));
  source.set("count", Json(count));
  source.set("ranges", ranges_to(ranges));
  json.set("source", std::move(source));
  Json engine = Json::object();
  engine.set("max_events", Json(max_events));
  engine.set("contact_slack", Json(contact_slack));
  if (horizon) engine.set("horizon", rational_to(*horizon));
  if (success_diameter) engine.set("success_diameter", Json(*success_diameter));
  json.set("engine", std::move(engine));
  return json;
}

GatherScenarioSpec GatherScenarioSpec::load(const std::string& path) {
  try {
    return from_json(Json::load_file(path));
  } catch (const std::exception& error) {
    throw std::invalid_argument(path + ": " + error.what());
  }
}

void GatherScenarioSpec::save(const std::string& path) const { to_json().save_file(path); }

std::uint64_t GatherScenarioSpec::fingerprint() const {
  return exp::fnv1a_fingerprint(to_json());
}

}  // namespace aurv::gatherx
