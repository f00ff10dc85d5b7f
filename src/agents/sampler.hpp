// Structured random instance samplers — one per region of the Theorem 3.1
// characterization. Each sampler draws parameters from documented ranges
// and returns an instance that provably belongs to its region (the
// conformance tests re-classify every sample). Used by the property-test
// grids and the census experiments; deterministic given the engine seed.
#pragma once

#include <cstdint>
#include <random>

#include "agents/instance.hpp"

namespace aurv::agents {

/// The RNG stream of one census sample: a std::mt19937_64 seeded exactly as
/// std::seed_seq{seed, sample} seeds it (each word split low 32 bits first),
/// so a sample's instance depends on (seed, sample) alone, never on
/// execution order or thread count. Shared by every census runner.
[[nodiscard]] std::mt19937_64 sample_stream(std::uint64_t seed, std::uint64_t sample);

struct SamplerRanges {
  double r_min = 0.5;
  double r_max = 1.5;
  /// Distance scale of B's start (and of projection distances for chi=-1).
  double dist_min = 1.2;
  double dist_max = 4.0;
  /// Margin above the feasibility boundary for types 1/2 (the paper's e).
  double margin_min = 0.25;
  double margin_max = 2.0;
};

/// Synchronous, chi = -1, t > dist(projA,projB) - r.
[[nodiscard]] Instance sample_type1(std::mt19937_64& rng, const SamplerRanges& ranges = {});

/// Synchronous, chi = +1, phi = 0, t > dist - r.
[[nodiscard]] Instance sample_type2(std::mt19937_64& rng, const SamplerRanges& ranges = {});

/// tau != 1 (clock skew), other attributes arbitrary.
[[nodiscard]] Instance sample_type3(std::mt19937_64& rng, const SamplerRanges& ranges = {});

/// tau = 1 and (v != 1, or synchronous with chi = +1 and phi != 0).
[[nodiscard]] Instance sample_type4(std::mt19937_64& rng, const SamplerRanges& ranges = {});

/// Boundary set S1: synchronous, chi = +1, phi = 0, t = dist - r (to double
/// round-off; classify() with the default epsilon recognizes it).
[[nodiscard]] Instance sample_boundary_s1(std::mt19937_64& rng,
                                          const SamplerRanges& ranges = {});

/// Boundary set S2: synchronous, chi = -1, t = dist(projA,projB) - r.
[[nodiscard]] Instance sample_boundary_s2(std::mt19937_64& rng,
                                          const SamplerRanges& ranges = {});

/// Infeasible: synchronous with t strictly below the relevant boundary.
[[nodiscard]] Instance sample_infeasible(std::mt19937_64& rng,
                                         const SamplerRanges& ranges = {});

}  // namespace aurv::agents
