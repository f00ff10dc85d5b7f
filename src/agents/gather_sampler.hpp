// Structured random n-agent gathering configurations — the instance side of
// the gathering experiment subsystem (src/gatherx/). Each sampler draws a
// GatherInstance (a visibility radius plus n agents with start positions and
// exact-rational wake-up delays) from documented ranges; like the two-agent
// samplers they are deterministic given the RNG stream, which is what lets
// the census driver regenerate job j's configuration lazily from
// agents::sample_stream(seed, sample) — an agents::SampleRng, the stream
// std::seed_seq{seed, sample} seeds — at any thread count.
//
// Four families, one per region of the configuration space TAB-7 probes:
//
//   disk     starts uniform in a disk of radius `spread`, wakes uniform —
//            the unstructured baseline population;
//   cluster  two tight clusters `spread` apart — bimodal geometry, the
//            accretion-chain stress for FirstSight;
//   ring     starts on a circle of radius `spread` with angular jitter —
//            symmetric geometry where AllVisible needs a genuine funnel;
//   spread   adversarial: far-apart colinear starts with wake delays drawn
//            *straddling* the [38] good-configuration boundary
//            (delay = dist - r relative to the earliest agent), so the
//            census maps exactly how predictive the funnel predicate is.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "agents/sampler.hpp"
#include "gather/engine.hpp"

namespace aurv::agents {

struct GatherSamplerRanges {
  /// Agent count, drawn uniformly in [n_min, n_max].
  std::uint32_t n_min = 3;
  std::uint32_t n_max = 5;
  double r_min = 0.5;
  double r_max = 1.5;
  /// Spatial scale: disk radius, cluster separation, ring radius, or
  /// adversarial chain spacing.
  double spread_min = 1.5;
  double spread_max = 4.0;
  /// Wake-up delays land in [0, wake_max] (quantized to the 1/64 grid; the
  /// earliest agent always wakes at 0).
  double wake_max = 8.0;
};

/// One n-agent gathering configuration: the common visibility radius and
/// the agents of the restricted shifted-frames model.
struct GatherInstance {
  double r = 1.0;
  std::vector<gather::GatherAgent> agents;

  [[nodiscard]] std::size_t n() const noexcept { return agents.size(); }
  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] GatherInstance sample_gather_disk(SampleRng& rng,
                                                const GatherSamplerRanges& ranges = {});
[[nodiscard]] GatherInstance sample_gather_cluster(SampleRng& rng,
                                                   const GatherSamplerRanges& ranges = {});
[[nodiscard]] GatherInstance sample_gather_ring(SampleRng& rng,
                                                const GatherSamplerRanges& ranges = {});
[[nodiscard]] GatherInstance sample_gather_spread(SampleRng& rng,
                                                  const GatherSamplerRanges& ranges = {});

}  // namespace aurv::agents
