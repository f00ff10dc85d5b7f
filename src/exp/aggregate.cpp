#include "exp/aggregate.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace aurv::exp {

using support::Json;

namespace {

constexpr OutcomeKeys kMeetKeys{
    "met", "meet_rate", "meet_time", "min_distance_floor",
    [](std::size_t k) { return sim::to_string(static_cast<sim::StopReason>(k)); }};

}  // namespace

int meet_time_bucket(double meet_time) {
  if (!(meet_time > 0.0)) return 0;
  const int k = static_cast<int>(std::floor(std::log2(meet_time))) +
                OutcomeTally::kHistogramOffset;
  return std::clamp(k, 0, OutcomeTally::kHistogramBuckets - 1);
}

void OutcomeTally::add(std::size_t stop_reason, std::uint64_t events, bool success,
                       double time, double closest) {
  closest_floor = runs == 0 ? closest : std::min(closest_floor, closest);
  ++runs;
  ++stop_reasons[stop_reason];
  total_events += events;
  max_events = std::max(max_events, events);
  if (success) {
    if (met == 0) {
      time_min = time;
      time_max = time;
    } else {
      time_min = std::min(time_min, time);
      time_max = std::max(time_max, time);
    }
    ++met;
    time_sum += time;
    ++time_histogram[static_cast<std::size_t>(meet_time_bucket(time))];
  }
}

void OutcomeTally::merge(const OutcomeTally& other) {
  if (other.runs == 0) return;
  if (runs == 0) {
    *this = other;
    return;
  }
  closest_floor = std::min(closest_floor, other.closest_floor);
  runs += other.runs;
  for (std::size_t k = 0; k < stop_reasons.size(); ++k) stop_reasons[k] += other.stop_reasons[k];
  total_events += other.total_events;
  max_events = std::max(max_events, other.max_events);
  if (other.met > 0) {
    if (met == 0) {
      time_min = other.time_min;
      time_max = other.time_max;
    } else {
      time_min = std::min(time_min, other.time_min);
      time_max = std::max(time_max, other.time_max);
    }
    met += other.met;
    time_sum += other.time_sum;
    for (std::size_t k = 0; k < time_histogram.size(); ++k)
      time_histogram[k] += other.time_histogram[k];
  }
}

double OutcomeTally::time_percentile(double p) const {
  AURV_CHECK_MSG(p >= 0.0 && p <= 1.0, "percentile out of [0, 1]");
  if (met == 0) return 0.0;
  // Rank of the p-quantile, 1-based, ceil convention.
  const auto rank =
      static_cast<std::uint64_t>(std::max(1.0, std::ceil(p * static_cast<double>(met))));
  std::uint64_t seen = 0;
  for (int k = 0; k < kHistogramBuckets; ++k) {
    seen += time_histogram[static_cast<std::size_t>(k)];
    if (seen >= rank) return std::ldexp(1.0, k - kHistogramOffset + 1);  // bucket upper edge
  }
  return time_max;
}

Json OutcomeTally::to_json(const OutcomeKeys& keys) const {
  const std::string time = keys.time;
  Json json = Json::object();
  json.set("runs", Json(runs));
  json.set(keys.met, Json(met));
  json.set(keys.rate, Json(rate()));
  Json reasons = Json::object();
  for (std::size_t k = 0; k < stop_reasons.size(); ++k)
    reasons.set(keys.stop_name(k), Json(stop_reasons[k]));
  json.set("stop_reasons", std::move(reasons));
  json.set("total_events", Json(total_events));
  json.set("max_events", Json(max_events));
  json.set(time + "_sum", Json(time_sum));
  json.set(time + "_min", Json(time_min));
  json.set(time + "_max", Json(time_max));
  json.set(time + "_p50", Json(time_percentile(0.50)));
  json.set(time + "_p95", Json(time_percentile(0.95)));
  json.set(time + "_p99", Json(time_percentile(0.99)));
  Json histogram = Json::array();
  for (const std::uint64_t count : time_histogram) histogram.push_back(Json(count));
  json.set(time + "_histogram", std::move(histogram));
  json.set(keys.floor, Json(closest_floor));
  return json;
}

void OutcomeTally::read_json(const Json& json, const OutcomeKeys& keys) {
  const std::string time = keys.time;
  runs = json.at("runs").as_uint();
  met = json.at(keys.met).as_uint();
  const Json& reasons = json.at("stop_reasons");
  for (std::size_t k = 0; k < stop_reasons.size(); ++k)
    stop_reasons[k] = reasons.at(keys.stop_name(k)).as_uint();
  total_events = json.at("total_events").as_uint();
  max_events = json.at("max_events").as_uint();
  time_sum = json.at(time + "_sum").as_number();
  time_min = json.at(time + "_min").as_number();
  time_max = json.at(time + "_max").as_number();
  const Json::Array& histogram = json.at(time + "_histogram").as_array();
  AURV_CHECK_MSG(histogram.size() == time_histogram.size(),
                 "histogram size mismatch in checkpoint");
  for (std::size_t k = 0; k < histogram.size(); ++k) time_histogram[k] = histogram[k].as_uint();
  closest_floor = json.at(keys.floor).as_number();
}

void CampaignAggregate::add(const sim::SimResult& result) {
  OutcomeTally::add(static_cast<std::size_t>(result.reason), result.events, result.met,
                    result.meet_time, result.min_distance_seen);
}

Json CampaignAggregate::to_json() const { return OutcomeTally::to_json(kMeetKeys); }

CampaignAggregate CampaignAggregate::from_json(const Json& json) {
  CampaignAggregate aggregate;
  aggregate.read_json(json, kMeetKeys);
  return aggregate;
}

}  // namespace aurv::exp
