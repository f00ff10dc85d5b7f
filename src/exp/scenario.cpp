#include "exp/scenario.hpp"

#include <stdexcept>
#include <utility>

#include "exp/registry.hpp"
#include "exp/spec_util.hpp"
#include "support/check.hpp"

namespace aurv::exp {

using support::Json;

namespace {

agents::Instance instance_from(const Json& json) {
  check_keys(json, {"r", "x", "y", "phi", "tau", "v", "t", "chi"}, "grid instance");
  return agents::Instance(
      json.at("r").as_number(),
      geom::Vec2{json.at("x").as_number(), json.at("y").as_number()},
      json.number_or("phi", 0.0),
      json.find("tau") != nullptr ? rational_from(json.at("tau"), "tau") : numeric::Rational(1),
      json.find("v") != nullptr ? rational_from(json.at("v"), "v") : numeric::Rational(1),
      json.find("t") != nullptr ? rational_from(json.at("t"), "t") : numeric::Rational(0),
      static_cast<int>(json.at("chi").as_int()));
}

Json instance_to(const agents::Instance& instance) {
  Json json = Json::object();
  json.set("r", Json(instance.r()));
  json.set("x", Json(instance.b_start().x));
  json.set("y", Json(instance.b_start().y));
  json.set("phi", Json(instance.phi()));
  json.set("tau", rational_to(instance.tau()));
  json.set("v", rational_to(instance.v()));
  json.set("t", rational_to(instance.t()));
  json.set("chi", Json(instance.chi()));
  return json;
}

agents::SamplerRanges ranges_from(const Json& json) {
  check_keys(json, {"r_min", "r_max", "dist_min", "dist_max", "margin_min", "margin_max"},
             "source.ranges");
  agents::SamplerRanges ranges;
  ranges.r_min = json.number_or("r_min", ranges.r_min);
  ranges.r_max = json.number_or("r_max", ranges.r_max);
  ranges.dist_min = json.number_or("dist_min", ranges.dist_min);
  ranges.dist_max = json.number_or("dist_max", ranges.dist_max);
  ranges.margin_min = json.number_or("margin_min", ranges.margin_min);
  ranges.margin_max = json.number_or("margin_max", ranges.margin_max);
  return ranges;
}

Json ranges_to(const agents::SamplerRanges& ranges) {
  Json json = Json::object();
  json.set("r_min", Json(ranges.r_min));
  json.set("r_max", Json(ranges.r_max));
  json.set("dist_min", Json(ranges.dist_min));
  json.set("dist_max", Json(ranges.dist_max));
  json.set("margin_min", Json(ranges.margin_min));
  json.set("margin_max", Json(ranges.margin_max));
  return json;
}

}  // namespace

std::uint64_t ScenarioSpec::total_jobs() const {
  const std::uint64_t instances = instance_count();
  AURV_CHECK_MSG(replications == 0 || instances <= UINT64_MAX / replications,
                 "scenario: count x replications overflows");
  return instances * replications;
}

ScenarioSpec ScenarioSpec::from_json(const Json& json) {
  check_keys(json,
             {"schema", "name", "description", "algorithm", "seed", "replications", "source",
              "engine"},
             "scenario");
  const std::uint64_t schema = json.uint_or("schema", 1);
  if (schema != 1)
    throw std::invalid_argument("scenario: unsupported schema " + std::to_string(schema));

  ScenarioSpec spec;
  spec.name = json.string_or("name", "");
  spec.description = json.string_or("description", "");
  spec.algorithm = json.string_or("algorithm", "aurv");
  spec.seed = json.uint_or("seed", 0);
  spec.replications = json.uint_or("replications", 1);
  if (spec.replications == 0)
    throw std::invalid_argument("scenario: replications must be >= 1");

  const Json& source = json.at("source");
  const bool has_sampler = source.find("sampler") != nullptr;
  const bool has_grid = source.find("grid") != nullptr;
  if (has_sampler == has_grid)
    throw std::invalid_argument(
        "scenario: source requires exactly one of \"sampler\" or \"grid\"");
  if (has_sampler) {
    check_keys(source, {"sampler", "count", "ranges"}, "source");
    spec.sampler = source.at("sampler").as_string();
    spec.count = source.at("count").as_uint();
    if (spec.count == 0) throw std::invalid_argument("scenario: source.count must be >= 1");
    if (const Json* ranges = source.find("ranges")) spec.ranges = ranges_from(*ranges);
  } else {
    check_keys(source, {"grid"}, "source");
    for (const Json& entry : source.at("grid").as_array()) spec.grid.push_back(instance_from(entry));
    if (spec.grid.empty()) throw std::invalid_argument("scenario: source.grid is empty");
  }

  if (const Json* engine = json.find("engine")) spec.engine = engine_from(*engine);

  // Fail at load time, not at job 0: both names must resolve.
  (void)resolve_algorithm(spec.algorithm);
  if (!spec.sampler.empty()) (void)resolve_sampler(spec.sampler);
  return spec;
}

Json ScenarioSpec::to_json() const {
  Json json = Json::object();
  json.set("schema", Json(std::uint64_t{1}));
  json.set("name", Json(name));
  if (!description.empty()) json.set("description", Json(description));
  json.set("algorithm", Json(algorithm));
  json.set("seed", Json(seed));
  json.set("replications", Json(replications));
  Json source = Json::object();
  if (!sampler.empty()) {
    source.set("sampler", Json(sampler));
    source.set("count", Json(count));
    source.set("ranges", ranges_to(ranges));
  } else {
    Json grid_json = Json::array();
    for (const agents::Instance& instance : grid) grid_json.push_back(instance_to(instance));
    source.set("grid", std::move(grid_json));
  }
  json.set("source", std::move(source));
  json.set("engine", engine_to(engine));
  return json;
}

ScenarioSpec ScenarioSpec::load(const std::string& path) {
  try {
    return from_json(Json::load_file(path));
  } catch (const std::exception& error) {
    throw std::invalid_argument(path + ": " + error.what());
  }
}

void ScenarioSpec::save(const std::string& path) const { to_json().save_file(path); }

std::uint64_t ScenarioSpec::fingerprint() const { return fnv1a_fingerprint(to_json()); }

// -------------------------------------------------------------- SearchSpec --

SearchSpec SearchSpec::from_json(const Json& json) {
  check_keys(json,
             {"schema", "kind", "name", "description", "algorithm", "objective", "space",
              "budget", "engine"},
             "search spec");
  const std::uint64_t schema = json.uint_or("schema", 1);
  if (schema != 1)
    throw std::invalid_argument("search spec: unsupported schema " + std::to_string(schema));
  if (json.string_or("kind", "") != kKind)
    throw std::invalid_argument("search spec: \"kind\" must be \"search\"");

  SearchSpec spec;
  spec.name = json.string_or("name", "");
  spec.description = json.string_or("description", "");
  spec.algorithm = json.string_or("algorithm", "aurv");
  spec.objective = json.string_or("objective", "max-meet-time");

  const Json& space = json.at("space");
  check_keys(space, {"family", "chi", "fixed", "box"}, "space");
  spec.space.family = search::SearchSpace::family_from_string(space.at("family").as_string());
  if (const Json* chi = space.find("chi")) {
    if (spec.space.family != search::SearchSpace::Family::Tuple)
      throw std::invalid_argument(
          "search spec: space.chi only applies to the tuple family (boundary families pin "
          "it)");
    spec.space.chi = static_cast<int>(chi->as_int());
  }
  if (const Json* fixed = space.find("fixed")) {
    for (const auto& [name, value] : fixed->as_object())
      spec.space.fixed.emplace_back(name, rational_from(value, name.c_str()));
  }
  for (const auto& [name, ends] : space.at("box").as_object()) {
    const Json::Array& pair = ends.as_array();
    if (pair.size() != 2)
      throw std::invalid_argument("search spec: space.box." + name +
                                  " must be a [lo, hi] pair");
    spec.space.dim_names.push_back(name);
    spec.box.push_back(search::Interval{rational_from(pair[0], name.c_str()),
                                        rational_from(pair[1], name.c_str())});
    if (spec.box.back().lo > spec.box.back().hi)
      throw std::invalid_argument("search spec: space.box." + name + " has lo > hi");
  }
  spec.space.validate();

  if (const Json* budget = json.find("budget")) {
    check_keys(*budget, {"max_boxes", "wave_size", "min_width", "min_improvement"}, "budget");
    spec.limits.max_boxes = budget->uint_or("max_boxes", spec.limits.max_boxes);
    spec.limits.wave_size = budget->uint_or("wave_size", spec.limits.wave_size);
    if (const Json* width = budget->find("min_width"))
      spec.limits.min_width = rational_from(*width, "min_width");
    spec.limits.min_improvement =
        budget->number_or("min_improvement", spec.limits.min_improvement);
    if (spec.limits.max_boxes == 0)
      throw std::invalid_argument("search spec: budget.max_boxes must be >= 1");
    if (spec.limits.wave_size == 0)
      throw std::invalid_argument("search spec: budget.wave_size must be >= 1");
    if (spec.limits.min_width.is_negative())
      throw std::invalid_argument("search spec: budget.min_width must be >= 0");
  }

  if (const Json* engine = json.find("engine")) spec.engine = engine_from(*engine);

  // Fail at load time, not at box 0: the algorithm must resolve (as a
  // common program for gather-tuple) and the objective must accept the
  // space (e.g. boundary-distance rejects non-synchronous tuple spaces).
  (void)search::make_objective(spec.objective, spec.space, search_algorithm_resolver(spec),
                               spec.engine);
  if (spec.space.family == search::SearchSpace::Family::GatherTuple) {
    // The gather point-to-chain mapping throws on negative delays and the
    // engine on r <= 0 — refuse such boxes here rather than from a worker
    // shard halfway through the search.
    const search::ParamBox root = spec.root_box();
    if (spec.space.param_interval("delay", root).lo.is_negative())
      throw std::invalid_argument(
          "search spec: gather-tuple delay must be >= 0 over the whole box (wake-up "
          "times are nonnegative by model)");
    if (spec.space.param_interval("r", root).lo.sign() <= 0)
      throw std::invalid_argument(
          "search spec: gather-tuple r must be positive over the whole box");
  }
  return spec;
}

search::AlgorithmResolverFn search_algorithm_resolver(const SearchSpec& spec) {
  if (spec.space.family == search::SearchSpace::Family::GatherTuple) {
    sim::AlgorithmFactory common = resolve_common_algorithm(spec.algorithm);
    return [common = std::move(common)](const agents::Instance&) { return common; };
  }
  return resolve_algorithm(spec.algorithm);
}

Json SearchSpec::to_json() const {
  Json json = Json::object();
  json.set("schema", Json(std::uint64_t{1}));
  json.set("kind", Json(kKind));
  json.set("name", Json(name));
  if (!description.empty()) json.set("description", Json(description));
  json.set("algorithm", Json(algorithm));
  json.set("objective", Json(objective));
  Json space_json = Json::object();
  space_json.set("family", Json(search::SearchSpace::to_string(space.family)));
  if (space.family == search::SearchSpace::Family::Tuple)
    space_json.set("chi", Json(space.chi));
  if (!space.fixed.empty()) {
    Json fixed_json = Json::object();
    for (const auto& [fixed_name, value] : space.fixed)
      fixed_json.set(fixed_name, rational_to(value));
    space_json.set("fixed", std::move(fixed_json));
  }
  Json box_json = Json::object();
  for (std::size_t k = 0; k < space.dim_names.size(); ++k) {
    Json pair = Json::array();
    pair.push_back(rational_to(box[k].lo));
    pair.push_back(rational_to(box[k].hi));
    box_json.set(space.dim_names[k], std::move(pair));
  }
  space_json.set("box", std::move(box_json));
  json.set("space", std::move(space_json));
  Json budget = Json::object();
  budget.set("max_boxes", Json(limits.max_boxes));
  budget.set("wave_size", Json(limits.wave_size));
  budget.set("min_width", rational_to(limits.min_width));
  budget.set("min_improvement", Json(limits.min_improvement));
  json.set("budget", std::move(budget));
  json.set("engine", engine_to(engine));
  return json;
}

SearchSpec SearchSpec::load(const std::string& path) {
  try {
    return from_json(Json::load_file(path));
  } catch (const std::exception& error) {
    throw std::invalid_argument(path + ": " + error.what());
  }
}

void SearchSpec::save(const std::string& path) const { to_json().save_file(path); }

std::uint64_t SearchSpec::fingerprint() const { return fnv1a_fingerprint(to_json()); }

}  // namespace aurv::exp
