#include "gatherx/aggregate.hpp"

namespace aurv::gatherx {

using support::Json;

namespace {

constexpr exp::OutcomeKeys kGatherKeys{
    "gathered", "gather_rate", "gather_time", "min_diameter_floor",
    [](std::size_t k) { return gather::to_string(static_cast<gather::GatherStop>(k)); }};

}  // namespace

void PolicyAggregate::add(const gather::GatherResult& result, bool funnel) {
  OutcomeTally::add(static_cast<std::size_t>(result.reason), result.events, result.gathered,
                    result.gather_time, result.min_diameter_seen);
  if (funnel) {
    ++funnel_runs;
    if (result.gathered) ++funnel_gathered;
  }
}

void PolicyAggregate::merge(const PolicyAggregate& other) {
  OutcomeTally::merge(other);
  funnel_runs += other.funnel_runs;
  funnel_gathered += other.funnel_gathered;
}

Json PolicyAggregate::to_json() const {
  Json json = OutcomeTally::to_json(kGatherKeys);
  json.set("funnel_runs", Json(funnel_runs));
  json.set("funnel_gathered", Json(funnel_gathered));
  return json;
}

PolicyAggregate PolicyAggregate::from_json(const Json& json) {
  PolicyAggregate aggregate;
  aggregate.read_json(json, kGatherKeys);
  aggregate.funnel_runs = json.at("funnel_runs").as_uint();
  aggregate.funnel_gathered = json.at("funnel_gathered").as_uint();
  return aggregate;
}

Json GatherAggregate::to_json() const {
  Json json = Json::object();
  for (const gather::StopPolicy policy :
       {gather::StopPolicy::FirstSight, gather::StopPolicy::AllVisible}) {
    const PolicyAggregate& aggregate = slice(policy);
    if (aggregate.runs > 0) json.set(gather::to_string(policy), aggregate.to_json());
  }
  return json;
}

GatherAggregate GatherAggregate::from_json(const Json& json) {
  GatherAggregate aggregate;
  for (const gather::StopPolicy policy :
       {gather::StopPolicy::FirstSight, gather::StopPolicy::AllVisible}) {
    if (const Json* slice_json = json.find(gather::to_string(policy)))
      aggregate.slice(policy) = PolicyAggregate::from_json(*slice_json);
  }
  return aggregate;
}

}  // namespace aurv::gatherx
