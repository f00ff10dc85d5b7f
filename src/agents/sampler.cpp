#include "agents/sampler.hpp"

#include <algorithm>

#include "geom/angle.hpp"
#include "support/check.hpp"

namespace aurv::agents {

namespace {

using numeric::Rational;

double uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

/// A random exact rational in (lo, hi), quantized to 1/64 so the exact
/// arithmetic stays cheap and the value is reproducible from its string.
Rational rational_in(std::mt19937_64& rng, double lo, double hi) {
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

/// std::seed_seq over four fixed 32-bit words, specialised to the 624 words
/// mt19937_64 requests: the [rand.util.seedseq] generate algorithm with
/// n = 624 (so t = 11, p = 306, q = 317, m = n), wrapped indices in place of
/// `% n` and the previous word kept in a local. The words equal
/// std::seed_seq's; only the cost differs.
class FourWordSeedSeq {
 public:
  using result_type = std::uint32_t;

  FourWordSeedSeq(std::uint64_t first, std::uint64_t second)
      : v_{static_cast<std::uint32_t>(first), static_cast<std::uint32_t>(first >> 32),
           static_cast<std::uint32_t>(second), static_cast<std::uint32_t>(second >> 32)} {}

  void generate(std::uint32_t* begin, std::uint32_t* end) const {
    constexpr std::uint32_t n = 624, s = 4, t = 11, p = (n - t) / 2, q = p + t;
    AURV_CHECK_MSG(end - begin == n, "FourWordSeedSeq: mt19937_64 requests 624 words");
    const auto mix = [](std::uint32_t x) { return x ^ (x >> 27); };
    // k + q wraps at k = n - q and k + p at k = n - p: three ranges keep the
    // loop bodies free of index arithmetic.
    const auto for_each_k = [](const auto& body) {
      for (std::uint32_t k = 0; k < n - q; ++k) body(k, k + p, k + q);
      for (std::uint32_t k = n - q; k < n - p; ++k) body(k, k + p, k + q - n);
      for (std::uint32_t k = n - p; k < n; ++k) body(k, k + p - n, k + q - n);
    };
    std::fill(begin, end, 0x8b8b8b8bU);
    std::uint32_t prev = begin[n - 1];
    for_each_k([&](std::uint32_t k, std::uint32_t kp, std::uint32_t kq) {
      const std::uint32_t r1 = 1664525U * mix(begin[k] ^ begin[kp] ^ prev);
      const std::uint32_t r2 = r1 + (k == 0 ? s : k <= s ? k + v_[k - 1] : k);
      begin[kp] += r1;
      begin[kq] += r2;
      begin[k] = prev = r2;
    });
    for_each_k([&](std::uint32_t k, std::uint32_t kp, std::uint32_t kq) {  // k stands for m + k
      const std::uint32_t r3 = 1566083941U * mix(begin[k] + begin[kp] + prev);
      const std::uint32_t r4 = r3 - k;
      begin[kp] ^= r3;
      begin[kq] ^= r4;
      begin[k] = prev = r4;
    });
  }

 private:
  std::uint32_t v_[4];
};

}  // namespace

std::mt19937_64 sample_stream(std::uint64_t seed, std::uint64_t sample) {
  FourWordSeedSeq seq(seed, sample);
  return std::mt19937_64(seq);
}

Instance sample_type1(std::mt19937_64& rng, const SamplerRanges& ranges) {
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

Instance sample_type2(std::mt19937_64& rng, const SamplerRanges& ranges) {
  const double r = uniform(rng, ranges.r_min, ranges.r_max);
  const double direction = uniform(rng, 0.0, geom::kTwoPi);
  const double dist = uniform(rng, std::max(ranges.dist_min, r + 0.2), ranges.dist_max + r);
  const geom::Vec2 b = dist * geom::unit_vector(direction);
  const Rational t = rational_in(rng, dist - r + ranges.margin_min,
                                 dist - r + ranges.margin_max);
  return Instance::synchronous(r, b, 0.0, t, 1);
}

Instance sample_type3(std::mt19937_64& rng, const SamplerRanges& ranges) {
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

Instance sample_type4(std::mt19937_64& rng, const SamplerRanges& ranges) {
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

Instance sample_boundary_s1(std::mt19937_64& rng, const SamplerRanges& ranges) {
  const double r = uniform(rng, ranges.r_min, ranges.r_max);
  const double direction = uniform(rng, 0.0, geom::kTwoPi);
  const double dist = uniform(rng, std::max(ranges.dist_min, r + 0.2), ranges.dist_max + r);
  const geom::Vec2 b = dist * geom::unit_vector(direction);
  // Pin t to the boundary as computed by the classifier's own formula.
  const Instance probe = Instance::synchronous(r, b, 0.0, 0, 1);
  return probe.with_delay(Rational::from_double(probe.initial_distance() - r));
}

Instance sample_boundary_s2(std::mt19937_64& rng, const SamplerRanges& ranges) {
  const double r = uniform(rng, ranges.r_min, ranges.r_max);
  const double phi = uniform(rng, 0.0, geom::kTwoPi);
  const double dist_proj = uniform(rng, std::max(ranges.dist_min, r + 0.2), ranges.dist_max);
  const double lateral = uniform(rng, 0.1, 1.0);
  const geom::Vec2 b = b_with_projection(phi, dist_proj, lateral);
  const Instance probe = Instance::synchronous(r, b, phi, 0, -1);
  return probe.with_delay(Rational::from_double(probe.projection_distance() - r));
}

Instance sample_infeasible(std::mt19937_64& rng, const SamplerRanges& ranges) {
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
