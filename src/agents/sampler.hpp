// Structured random instance samplers — one per region of the Theorem 3.1
// characterization. Each sampler draws parameters from documented ranges
// and returns an instance that provably belongs to its region (the
// conformance tests re-classify every sample). Used by the property-test
// grids and the census experiments; deterministic given the engine seed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "agents/instance.hpp"

namespace aurv::agents {

/// The samplers' engine: exactly std::mt19937_64's sequence, also through the
/// standard distributions, but each state word is twisted when it is drawn
/// instead of all 312 at a round's first draw (a sample draws a handful).
class SampleRng {
 public:
  using result_type = std::uint64_t;

  /// Equal to std::mt19937_64(seed).
  explicit SampleRng(std::uint64_t seed);

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    constexpr std::size_t m = 156;
    constexpr std::uint64_t upper = ~std::uint64_t{0} << 31, lower = ~upper;
    const std::size_t i = next_ == kWords ? 0 : next_;
    const std::uint64_t y = (x_[i] & upper) | (x_[i + 1 == kWords ? 0 : i + 1] & lower);
    x_[i] = x_[i < kWords - m ? i + m : i + m - kWords] ^ (y >> 1) ^
            ((y & 1) != 0 ? 0xb5026f5aa96619e9ULL : 0);
    next_ = i + 1;
    std::uint64_t z = x_[i];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  friend SampleRng sample_stream(std::uint64_t seed, std::uint64_t sample);
  SampleRng() = default;

  static constexpr std::size_t kWords = 312;
  std::array<std::uint64_t, kWords> x_{};
  std::size_t next_ = kWords;  // the next word to twist and draw; kWords starts a round
};

/// The RNG stream of one census sample: the std::mt19937_64 sequence that
/// std::seed_seq{seed, sample} seeds (each word split low 32 bits first),
/// so a sample's instance depends on (seed, sample) alone, never on
/// execution order or thread count. Shared by every census runner.
[[nodiscard]] SampleRng sample_stream(std::uint64_t seed, std::uint64_t sample);

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
[[nodiscard]] Instance sample_type1(SampleRng& rng, const SamplerRanges& ranges = {});

/// Synchronous, chi = +1, phi = 0, t > dist - r.
[[nodiscard]] Instance sample_type2(SampleRng& rng, const SamplerRanges& ranges = {});

/// tau != 1 (clock skew), other attributes arbitrary.
[[nodiscard]] Instance sample_type3(SampleRng& rng, const SamplerRanges& ranges = {});

/// tau = 1 and (v != 1, or synchronous with chi = +1 and phi != 0).
[[nodiscard]] Instance sample_type4(SampleRng& rng, const SamplerRanges& ranges = {});

/// Boundary set S1: synchronous, chi = +1, phi = 0, t = dist - r (to double
/// round-off; classify() with the default epsilon recognizes it).
[[nodiscard]] Instance sample_boundary_s1(SampleRng& rng,
                                          const SamplerRanges& ranges = {});

/// Boundary set S2: synchronous, chi = -1, t = dist(projA,projB) - r.
[[nodiscard]] Instance sample_boundary_s2(SampleRng& rng,
                                          const SamplerRanges& ranges = {});

/// Infeasible: synchronous with t strictly below the relevant boundary.
[[nodiscard]] Instance sample_infeasible(SampleRng& rng,
                                         const SamplerRanges& ranges = {});

}  // namespace aurv::agents
