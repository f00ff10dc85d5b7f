// Streaming gathering-census statistics: what TAB-7 reports about a
// population of n-agent runs, in O(1) memory per shard and bit-identical at
// any thread count. The statistics are exp::OutcomeTally's, the same tally
// the two-agent campaigns keep, written under the gathering key names.
//
// One PolicyAggregate per configured stop policy: gathering under
// FirstSight (accreting chains) and AllVisible (simultaneous visibility)
// are different experiments on the same configuration population, so the
// census keeps their populations separate and the summary reports the
// per-stop-policy breakdown side by side.
#pragma once

#include <cstdint>

#include "exp/aggregate.hpp"
#include "gather/engine.hpp"
#include "support/json.hpp"

namespace aurv::gatherx {

/// One stop policy's tally: "gathered", "gather_time_*",
/// "min_diameter_floor" (the floor of the max pairwise distance: how close
/// the never-gathering runs came), stop reasons named by gather::GatherStop.
struct PolicyAggregate : exp::OutcomeTally {
  /// The [38] "good configuration" predicate cross-tab: how many runs the
  /// funnel predicate accepted, and how many of those actually gathered —
  /// the census-scale version of TAB-7's funnel? column.
  std::uint64_t funnel_runs = 0;
  std::uint64_t funnel_gathered = 0;

  void add(const gather::GatherResult& result, bool funnel);
  void merge(const PolicyAggregate& other);

  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static PolicyAggregate from_json(const support::Json& json);

  friend bool operator==(const PolicyAggregate& a, const PolicyAggregate& b) = default;
};

struct GatherAggregate {
  PolicyAggregate first_sight;
  PolicyAggregate all_visible;

  [[nodiscard]] PolicyAggregate& slice(gather::StopPolicy policy) {
    return policy == gather::StopPolicy::FirstSight ? first_sight : all_visible;
  }
  [[nodiscard]] const PolicyAggregate& slice(gather::StopPolicy policy) const {
    return policy == gather::StopPolicy::FirstSight ? first_sight : all_visible;
  }

  void add(gather::StopPolicy policy, const gather::GatherResult& result, bool funnel) {
    slice(policy).add(result, funnel);
  }
  void merge(const GatherAggregate& other) {
    first_sight.merge(other.first_sight);
    all_visible.merge(other.all_visible);
  }

  /// Object keyed by policy name; policies the census never ran (empty
  /// slices) are omitted, so a single-policy census reads cleanly.
  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static GatherAggregate from_json(const support::Json& json);

  friend bool operator==(const GatherAggregate& a, const GatherAggregate& b) = default;
};

}  // namespace aurv::gatherx
