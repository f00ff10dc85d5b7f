#include "agents/sampler.hpp"

#include <algorithm>
#include <random>

#include "geom/angle.hpp"
#include "support/check.hpp"

namespace aurv::agents {

namespace {

using numeric::Rational;

double uniform(SampleRng& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

/// A random exact rational in (lo, hi), quantized to 1/64 so the exact
/// arithmetic stays cheap and the value is reproducible from its string.
Rational rational_in(SampleRng& rng, double lo, double hi) {
  const auto lo64 = static_cast<long long>(lo * 64.0) + 1;
  const auto hi64 = static_cast<long long>(hi * 64.0);
  AURV_CHECK_MSG(lo64 <= hi64, "rational_in: empty range");
  std::uniform_int_distribution<long long> dist(lo64, hi64);
  return Rational::dyadic(dist(rng), 6);
}

/// B start with a prescribed projection distance onto the canonical line of
/// inclination phi/2 and a lateral offset across it.
geom::Vec2 b_with_projection(double phi, double dist_proj, double lateral) {
  const geom::Vec2 along = geom::unit_vector(phi / 2.0);
  return dist_proj * along + lateral * along.perp();
}

/// The std::seed_seq{seed, first + lane} words of the four samples
/// first .. first + 3 (first 4-aligned), generated in one pass as four
/// interleaved chains: the [rand.util.seedseq] generate algorithm with
/// n = 624 (so t = 11, p = 306, q = 317, m = n), wrapped indices in place of
/// `% n` and each chain's previous word kept in a local. A chain is
/// latency-bound, so the four share the cost of one. One array per lane
/// keeps the chains scalar (imul); baseline x86-64 vectors have no 32-bit
/// lane multiply, and their emulation measured slower.
using SeedGroup = std::array<std::array<std::uint32_t, 624>, 4>;

void generate_group(std::uint64_t seed, std::uint64_t first, SeedGroup& words) {
  constexpr std::uint32_t n = 624, s = 4, t = 11, p = (n - t) / 2, q = p + t;
  // The seed words of `first`; lane's sample differs only in word 2, by
  // lane (first is 4-aligned, so no carry).
  const std::uint32_t v[4] = {static_cast<std::uint32_t>(seed),
                              static_cast<std::uint32_t>(seed >> 32),
                              static_cast<std::uint32_t>(first),
                              static_cast<std::uint32_t>(first >> 32)};
  const auto mix = [](std::uint32_t x) { return x ^ (x >> 27); };
  // k + q wraps at k = n - q and k + p at k = n - p: three ranges keep the
  // loop bodies free of index arithmetic.
  const auto for_each_k = [](const auto& body) {
    for (std::uint32_t k = 0; k < n - q; ++k) body(k, k + p, k + q);
    for (std::uint32_t k = n - q; k < n - p; ++k) body(k, k + p, k + q - n);
    for (std::uint32_t k = n - p; k < n; ++k) body(k, k + p - n, k + q - n);
  };
  for (auto& lane : words) lane.fill(0x8b8b8b8bU);
  std::uint32_t prev[4] = {0x8b8b8b8bU, 0x8b8b8b8bU, 0x8b8b8b8bU, 0x8b8b8b8bU};
  for_each_k([&](std::uint32_t k, std::uint32_t kp, std::uint32_t kq) {
    for (std::uint32_t lane = 0; lane < 4; ++lane) {
      std::uint32_t* w = words[lane].data();
      const std::uint32_t r1 = 1664525U * mix(w[k] ^ w[kp] ^ prev[lane]);
      const std::uint32_t r2 = r1 + (k == 0 ? s : k <= s ? k + v[k - 1] + (k == 3 ? lane : 0) : k);
      w[kp] += r1;
      w[kq] += r2;
      w[k] = prev[lane] = r2;
    }
  });
  for_each_k([&](std::uint32_t k, std::uint32_t kp, std::uint32_t kq) {  // k stands for m + k
    for (std::uint32_t lane = 0; lane < 4; ++lane) {
      std::uint32_t* w = words[lane].data();
      const std::uint32_t r3 = 1566083941U * mix(w[k] + w[kp] + prev[lane]);
      const std::uint32_t r4 = r3 - k;
      w[kp] ^= r3;
      w[kq] ^= r4;
      w[k] = prev[lane] = r4;
    }
  });
}

}  // namespace

SampleRng::SampleRng(std::uint64_t seed) {
  x_[0] = seed;
  for (std::size_t i = 1; i < kWords; ++i) {
    x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
  }
}

SampleRng sample_stream(std::uint64_t seed, std::uint64_t sample) {
  // One group of four per thread is kept: consecutive samples reuse it, and
  // any other visit order only regenerates.
  static thread_local struct {
    std::uint64_t seed = 0, first = 1;  // first = 1 is never 4-aligned: nothing generated yet
    SeedGroup words;
  } memo;
  const std::uint64_t first = sample & ~std::uint64_t{3};
  if (memo.seed != seed || memo.first != first) {
    generate_group(seed, first, memo.words);
    memo.seed = seed;
    memo.first = first;
  }
  const std::array<std::uint32_t, 624>& words = memo.words[sample & 3];
  SampleRng rng;  // word i pairs words 2i (low) and 2i + 1, as mt19937_64's seed(seq)
  for (std::size_t i = 0; i < SampleRng::kWords; ++i) {
    rng.x_[i] = words[2 * i] | std::uint64_t{words[2 * i + 1]} << 32;
  }
  // seed(seq) replaces an all-zero state (word 0's low 31 bits aside).
  if ((rng.x_[0] >> 31) == 0 && *std::max_element(rng.x_.begin() + 1, rng.x_.end()) == 0) {
    rng.x_[0] = std::uint64_t{1} << 63;
  }
  return rng;
}

Instance sample_type1(SampleRng& rng, const SamplerRanges& ranges) {
  const double r = uniform(rng, ranges.r_min, ranges.r_max);
  const double phi = uniform(rng, 0.0, geom::kTwoPi);
  // dist >= dist_proj must exceed r or the instance is a trivial overlap.
  const double dist_proj = uniform(rng, std::max(ranges.dist_min, r + 0.2), ranges.dist_max);
  const double lateral = uniform(rng, 0.1, 1.0);
  const geom::Vec2 b = b_with_projection(phi, dist_proj, lateral);
  // t strictly above the boundary dist_proj - r by the margin range; the
  // sampled projection distance of the *constructed* b is dist_proj exactly
  // (the lateral part projects to zero).
  const Rational t = rational_in(rng, std::max(0.0, dist_proj - r) + ranges.margin_min,
                                 std::max(0.0, dist_proj - r) + ranges.margin_max);
  return Instance::synchronous(r, b, phi, t, -1);
}

Instance sample_type2(SampleRng& rng, const SamplerRanges& ranges) {
  const double r = uniform(rng, ranges.r_min, ranges.r_max);
  const double direction = uniform(rng, 0.0, geom::kTwoPi);
  const double dist = uniform(rng, std::max(ranges.dist_min, r + 0.2), ranges.dist_max + r);
  const geom::Vec2 b = dist * geom::unit_vector(direction);
  const Rational t = rational_in(rng, dist - r + ranges.margin_min,
                                 dist - r + ranges.margin_max);
  return Instance::synchronous(r, b, 0.0, t, 1);
}

Instance sample_type3(SampleRng& rng, const SamplerRanges& ranges) {
  const double r = uniform(rng, ranges.r_min, ranges.r_max);
  const double phi = uniform(rng, 0.0, geom::kTwoPi);
  const double dist = uniform(rng, std::max(ranges.dist_min, r + 0.2), ranges.dist_max);
  const geom::Vec2 b = dist * geom::unit_vector(uniform(rng, 0.0, geom::kTwoPi));
  // tau != 1: draw from {1/3 .. 3} \ {1} on the 1/64 grid.
  Rational tau = rational_in(rng, 0.3, 3.0);
  if (tau == Rational(1)) tau = Rational::from_string("3/2");
  const Rational v = rational_in(rng, 0.5, 2.0);
  const Rational t = rational_in(rng, 0.0, 2.0);
  const int chi = std::uniform_int_distribution<int>(0, 1)(rng) == 0 ? 1 : -1;
  return Instance(r, b, phi, tau, v, t, chi);
}

Instance sample_type4(SampleRng& rng, const SamplerRanges& ranges) {
  const double r = uniform(rng, ranges.r_min, ranges.r_max);
  const double dist = uniform(rng, std::max(ranges.dist_min, r + 0.2), ranges.dist_max);
  const geom::Vec2 b = dist * geom::unit_vector(uniform(rng, 0.0, geom::kTwoPi));
  if (std::uniform_int_distribution<int>(0, 1)(rng) == 0) {
    // tau = 1, v != 1 (non-synchronous branch of type 4).
    Rational v = rational_in(rng, 0.4, 2.5);
    if (v == Rational(1)) v = Rational(2);
    const double phi = uniform(rng, 0.0, geom::kTwoPi);
    const int chi = std::uniform_int_distribution<int>(0, 1)(rng) == 0 ? 1 : -1;
    const Rational t = rational_in(rng, 0.0, 1.0);
    return Instance(r, b, phi, 1, v, t, chi);
  }
  // Synchronous, chi = +1, phi != 0 (clause 2a).
  const double phi = uniform(rng, 0.05, geom::kTwoPi - 0.05);
  const Rational t = rational_in(rng, 0.0, 2.0);
  return Instance::synchronous(r, b, phi, t, 1);
}

Instance sample_boundary_s1(SampleRng& rng, const SamplerRanges& ranges) {
  const double r = uniform(rng, ranges.r_min, ranges.r_max);
  const double direction = uniform(rng, 0.0, geom::kTwoPi);
  const double dist = uniform(rng, std::max(ranges.dist_min, r + 0.2), ranges.dist_max + r);
  const geom::Vec2 b = dist * geom::unit_vector(direction);
  // Pin t to the boundary as computed by the classifier's own formula.
  const Instance probe = Instance::synchronous(r, b, 0.0, 0, 1);
  return probe.with_delay(Rational::from_double(probe.initial_distance() - r));
}

Instance sample_boundary_s2(SampleRng& rng, const SamplerRanges& ranges) {
  const double r = uniform(rng, ranges.r_min, ranges.r_max);
  const double phi = uniform(rng, 0.0, geom::kTwoPi);
  const double dist_proj = uniform(rng, std::max(ranges.dist_min, r + 0.2), ranges.dist_max);
  const double lateral = uniform(rng, 0.1, 1.0);
  const geom::Vec2 b = b_with_projection(phi, dist_proj, lateral);
  const Instance probe = Instance::synchronous(r, b, phi, 0, -1);
  return probe.with_delay(Rational::from_double(probe.projection_distance() - r));
}

Instance sample_infeasible(SampleRng& rng, const SamplerRanges& ranges) {
  const double r = uniform(rng, ranges.r_min, ranges.r_max);
  if (std::uniform_int_distribution<int>(0, 1)(rng) == 0) {
    // chi = +1, phi = 0, t < dist - r.
    const double dist = uniform(rng, r + 1.0, ranges.dist_max + r + 1.0);
    const geom::Vec2 b = dist * geom::unit_vector(uniform(rng, 0.0, geom::kTwoPi));
    const Rational t = rational_in(rng, 0.0, dist - r - 0.5);
    return Instance::synchronous(r, b, 0.0, t, 1);
  }
  // chi = -1, t < dist_proj - r.
  const double phi = uniform(rng, 0.0, geom::kTwoPi);
  const double dist_proj = uniform(rng, r + 1.0, ranges.dist_max + r + 1.0);
  const geom::Vec2 b = b_with_projection(phi, dist_proj, uniform(rng, 0.1, 1.0));
  const Rational t = rational_in(rng, 0.0, dist_proj - r - 0.5);
  return Instance::synchronous(r, b, phi, t, -1);
}

}  // namespace aurv::agents
