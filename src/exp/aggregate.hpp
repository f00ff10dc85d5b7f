// Streaming outcome statistics: everything the paper's sweep tables report
// about a population of runs, in O(1) memory per shard. One tally serves
// both the two-agent campaigns (CampaignAggregate, "met") and the
// gathering censuses (gatherx::PolicyAggregate, "gathered"); only the JSON
// key names differ.
//
// A tally absorbs runs one at a time and merges associatively with other
// tallies. Both operations are performed in a fixed order by the runner
// (job order within a shard, shard order across shards), so every field —
// including the floating-point sums — is bit-identical at any thread count.
// Percentiles come from a fixed log2-bucketed histogram of success times
// (exact to the bucket, deterministic by construction); exact extrema are
// tracked separately.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/engine.hpp"
#include "support/json.hpp"

namespace aurv::exp {

/// The JSON key names of one kind of run population; `time` is the prefix
/// of the success-time fields (`<time>_sum`, `_min`, `_max`, `_p50`,
/// `_p95`, `_p99`, `_histogram`).
struct OutcomeKeys {
  const char* met;    ///< success count ("met" / "gathered")
  const char* rate;   ///< derived success rate, written but never read
  const char* time;   ///< "meet_time" / "gather_time"
  const char* floor;  ///< closest-approach floor
  /// Key of stop reason k (the engine's enum, as an index).
  std::string (*stop_name)(std::size_t reason);
};

struct OutcomeTally {
  /// log2 buckets for success times: bucket k covers [2^(k-16), 2^(k-15)),
  /// clamped at the ends. Covers 2^-16 .. 2^48 absolute time units, beyond
  /// the span of any experiment in the repo (block-3 waits land in the
  /// engine's fuel budget long before 2^48).
  static constexpr int kHistogramBuckets = 64;
  static constexpr int kHistogramOffset = 16;

  std::uint64_t runs = 0;
  std::uint64_t met = 0;  ///< runs that met (two agents) or gathered (n agents)
  /// Indexed by the engine's stop-reason enum.
  std::array<std::uint64_t, 4> stop_reasons{};

  std::uint64_t total_events = 0;
  std::uint64_t max_events = 0;

  double time_sum = 0.0;
  double time_min = 0.0;  ///< valid when met > 0
  double time_max = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> time_histogram{};

  /// min over all runs of the run's closest approach — the continuous
  /// minimum distance of two agents, or the smallest configuration diameter
  /// of n agents. The impossibility campaigns assert this floor stays above
  /// r. Valid when runs > 0.
  double closest_floor = 0.0;

  void add(std::size_t stop_reason, std::uint64_t events, bool success, double time,
           double closest);

  /// Associative combine; the runner always calls this left-to-right in
  /// shard order, which is what makes double sums reproducible.
  void merge(const OutcomeTally& other);

  /// Success-time percentile from the histogram: upper edge of the bucket
  /// containing the p-quantile rank among successful runs (1-based, ceil
  /// convention); time_max when the rank lies beyond the last bucket, 0
  /// when met == 0.
  [[nodiscard]] double time_percentile(double p) const;

  [[nodiscard]] double rate() const {
    return runs == 0 ? 0.0 : static_cast<double>(met) / static_cast<double>(runs);
  }

  /// Lossless round-trip (doubles serialized exactly) — the checkpoint
  /// format. to_json also embeds derived convenience fields (rate,
  /// p50/p95/p99) which read_json ignores.
  [[nodiscard]] support::Json to_json(const OutcomeKeys& keys) const;
  void read_json(const support::Json& json, const OutcomeKeys& keys);

  friend bool operator==(const OutcomeTally& a, const OutcomeTally& b) = default;
};

/// Histogram bucket index for a success time (exposed for tests).
[[nodiscard]] int meet_time_bucket(double meet_time);

/// The two-agent campaign's tally: "met", "meet_time_*",
/// "min_distance_floor", stop reasons named by sim::StopReason.
struct CampaignAggregate : OutcomeTally {
  void add(const sim::SimResult& result);

  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static CampaignAggregate from_json(const support::Json& json);
};

}  // namespace aurv::exp
