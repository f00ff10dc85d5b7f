// Differential tests for the filtered numeric kernel: every tier of the
// ladder (double interval, two-limb dyadic, exact rational) must return the
// same answer the Rational authority would, the interval tier must always
// enclose the true value, and Dyadic128::to_double must replay
// Rational::to_double bit for bit so artifact bytes never depend on which
// tier happened to hold a value. Includes constructed near-ties whose
// intervals overlap, forcing the deeper tiers to settle the comparison.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <compare>
#include <cstdint>
#include <random>
#include <vector>

#include "agents/instance.hpp"
#include "core/almost_universal.hpp"
#include "numeric/filter.hpp"
#include "numeric/rational.hpp"
#include "sim/engine.hpp"

namespace aurv::numeric {
namespace {

/// RAII toggle for the global exact-only mode: restores the previous mode
/// so tests never leak the flag into each other (the suite also runs with
/// AURV_EXACT_ONLY=1 in CI, where the ambient mode is on).
class ExactOnlyGuard {
 public:
  explicit ExactOnlyGuard(bool exact_only) : previous_(filter_exact_only()) {
    set_filter_exact_only(exact_only);
  }
  ~ExactOnlyGuard() { set_filter_exact_only(previous_); }

 private:
  bool previous_;
};

bool same_double_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Random rationals spanning every tier: small dyadics (interval-point
/// resident), two-limb dyadics (Dyadic128 resident), wide dyadics and
/// non-dyadics (Rational escapes).
Rational random_rational(std::mt19937_64& rng) {
  const auto small = [&](std::uint64_t bound) {
    return static_cast<long long>(rng() % bound) - static_cast<long long>(bound / 2);
  };
  switch (rng() % 6) {
    case 0:  // small integer
      return Rational(small(1000));
    case 1:  // small dyadic: exactly representable as a double
      return Rational::dyadic(small(1 << 20), rng() % 30);
    case 2:  // two-limb dyadic: Dyadic128 tier, beyond double's mantissa
      return Rational::pow2(40 + rng() % 40) + Rational::dyadic(small(1 << 20), rng() % 50);
    case 3:  // wide dyadic: > 127 mantissa bits, escapes to Rational
      return Rational::pow2(150 + rng() % 100) + Rational::dyadic(1 + small(64) % 7, 30 + rng() % 30);
    case 4:  // non-dyadic: never enters the dyadic tier
      return Rational(BigInt(small(10000)), BigInt(1 + rng() % 97));
    default:  // huge magnitude integer
      return Rational::pow2(300 + rng() % 80) - Rational(small(50));
  }
}

TEST(FilteredKernel, ComparisonMatchesRationalAcrossAllTiers) {
  std::mt19937_64 rng(20260807);
  for (int round = 0; round < 4000; ++round) {
    const Rational ra = random_rational(rng);
    const Rational rb = rng() % 8 == 0 ? ra : random_rational(rng);
    const Filtered a(ra);
    const Filtered b(rb);
    EXPECT_EQ(a <=> b, ra <=> rb) << ra.to_string() << " vs " << rb.to_string();
    EXPECT_EQ(a == b, ra == rb);
  }
}

TEST(FilteredKernel, NearTiesInsideIntervalOverlapEscalateCorrectly) {
  // Pairs whose 2-ulp double intervals overlap; the interval tier must
  // refuse and the deeper tier named in the comment must settle them.
  struct Case {
    Rational lhs;
    Rational rhs;
  };
  const std::vector<Case> cases = {
      // Dyadic128-resident: identical leading 60 bits, tail differs.
      {Rational::pow2(60) + Rational::dyadic(3, 60), Rational::pow2(60) + Rational::dyadic(5, 61)},
      // Dyadic128-resident exact tie spelled two ways.
      {Rational::pow2(60) + Rational::dyadic(2, 60), Rational::pow2(60) + Rational::dyadic(1, 59)},
      // Rational-resident (> 127 mantissa bits): tail below double visibility.
      {Rational::pow2(200) + Rational::dyadic(1, 100),
       Rational::pow2(200) + Rational::dyadic(1, 101)},
      // Non-dyadic equality spelled two ways.
      {Rational(BigInt(1), BigInt(3)), Rational(BigInt(2), BigInt(6))},
      // Non-dyadic near-tie.
      {Rational(BigInt(1), BigInt(3)), Rational(BigInt(333333333), BigInt(1000000000))},
  };
  for (const Case& c : cases) {
    const Filtered a(c.lhs);
    const Filtered b(c.rhs);
    EXPECT_EQ(a <=> b, c.lhs <=> c.rhs) << c.lhs.to_string() << " vs " << c.rhs.to_string();
    EXPECT_EQ(b <=> a, c.rhs <=> c.lhs);
  }
}

TEST(FilteredKernel, ComparisonCountsExactlyOneTierPerDecision) {
  // Tier attribution is only meaningful with the ladder live; under the
  // ambient exact-only mode every decision is (correctly) an exact escape.
  ExactOnlyGuard guard(false);
  FilterStats& stats = filter_stats();
  const auto total = [&] { return stats.fast_hits + stats.limb2_hits + stats.exact_escapes; };

  const Filtered small_a(Rational::dyadic(3, 7));
  const Filtered small_b(Rational::dyadic(5, 9));
  std::uint64_t before = total();
  const std::uint64_t fast_before = stats.fast_hits;
  (void)(small_a < small_b);
  EXPECT_EQ(total(), before + 1);
  EXPECT_EQ(stats.fast_hits, fast_before + 1);

  const Filtered tie_a(Rational::pow2(60) + Rational::dyadic(3, 60));
  const Filtered tie_b(Rational::pow2(60) + Rational::dyadic(5, 61));
  before = total();
  const std::uint64_t limb2_before = stats.limb2_hits;
  (void)(tie_a < tie_b);
  EXPECT_EQ(total(), before + 1);
  EXPECT_EQ(stats.limb2_hits, limb2_before + 1);

  const Filtered deep_a(Rational(BigInt(1), BigInt(3)));
  const Filtered deep_b(Rational(BigInt(2), BigInt(6)));
  before = total();
  const std::uint64_t exact_before = stats.exact_escapes;
  (void)(deep_a == deep_b);
  EXPECT_EQ(total(), before + 1);
  EXPECT_EQ(stats.exact_escapes, exact_before + 1);
}

TEST(FilteredKernel, ArithmeticMatchesRationalAcrossTierTransitions) {
  std::mt19937_64 rng(424242);
  for (int round = 0; round < 2000; ++round) {
    const Rational ra = random_rational(rng);
    const Rational rb = random_rational(rng);
    Filtered sum(ra);
    sum += Filtered(rb);
    EXPECT_EQ(sum.to_rational(), ra + rb);
    Filtered diff(ra);
    diff -= Filtered(rb);
    EXPECT_EQ(diff.to_rational(), ra - rb);
    Filtered prod(ra);
    prod *= Filtered(rb);
    EXPECT_EQ(prod.to_rational(), ra * rb);
  }
}

TEST(FilteredKernel, IntervalAlwaysEnclosesAndPointsAreExact) {
  std::mt19937_64 rng(777);
  for (int round = 0; round < 2000; ++round) {
    const Rational value = random_rational(rng);
    const Filtered filtered(value);
    const FInterval interval = filtered.interval();
    EXPECT_LE(Rational::from_double(interval.lo), value) << value.to_string();
    EXPECT_GE(Rational::from_double(interval.hi), value) << value.to_string();
    if (interval.is_point()) {
      EXPECT_EQ(Rational::from_double(interval.lo), value)
          << "point interval must mean exactly representable: " << value.to_string();
    }
  }
}

TEST(FilteredKernel, DyadicToDoubleReplaysRationalToDoubleBitForBit) {
  std::mt19937_64 rng(991199);
  for (int round = 0; round < 4000; ++round) {
    const Rational value = random_rational(rng);
    const Filtered filtered(value);
    // Whichever tier holds the value, to_double must equal the authority's.
    EXPECT_TRUE(same_double_bits(filtered.to_double(), value.to_double()))
        << value.to_string() << " tier=" << filtered.in_dyadic_tier();
    __int128 mantissa = 0;
    std::int64_t scale = 0;
    if (value.dyadic128_view(mantissa, scale)) {
      Dyadic128 dyadic{mantissa, scale};
      dyadic.normalize();
      EXPECT_TRUE(same_double_bits(dyadic.to_double(), value.to_double()))
          << value.to_string();
      EXPECT_EQ(dyadic.to_rational(), value);
    }
  }
  // Deep/huge endpoints of the conversion: denominator exponent past the
  // inline tier, numerator past 62 bits, and saturation to infinity.
  const std::vector<Rational> edges = {
      Rational::dyadic(1, 120),
      Rational::dyadic((1ll << 62) - 3, 120),
      Rational::pow2(120) + Rational::dyadic(1, 5),
      Rational::pow2(1023),
      Rational::pow2(1024),  // overflows to inf in both paths
      Rational::dyadic(1, 1074),
      Rational::dyadic(1, 1100),  // underflows to zero in both paths
  };
  for (const Rational& value : edges) {
    const Filtered filtered(value);
    EXPECT_TRUE(same_double_bits(filtered.to_double(), value.to_double()))
        << value.to_string();
  }
}

TEST(FilteredKernel, ExactOnlyModeAgreesWithFilteredLadder) {
  std::mt19937_64 rng(31337);
  for (int round = 0; round < 500; ++round) {
    const Rational ra = random_rational(rng);
    const Rational rb = rng() % 8 == 0 ? ra : random_rational(rng);
    const std::strong_ordering filtered_order = Filtered(ra) <=> Filtered(rb);
    ExactOnlyGuard guard(true);
    const Filtered a(ra);
    const Filtered b(rb);
    EXPECT_FALSE(a.in_dyadic_tier());
    EXPECT_EQ(a <=> b, filtered_order);
  }
}

TEST(FilteredKernel, EngineRunsAreByteIdenticalFilteredVsExactOnly) {
  // The soundness contract made observable: the simulation reaches the same
  // meet time, positions, and event count whichever ladder mode decided the
  // comparisons. This is the in-process twin of the CI byte-compare.
  const auto run = [] {
    sim::EngineConfig config;
    config.max_events = 2000;
    const agents::Instance instance =
        agents::Instance::synchronous(0.25, {37.5, 0.0}, 0.0, 0, 1);
    return sim::Engine(instance, config).run([] { return core::almost_universal_rv(); });
  };
  const sim::SimResult filtered = run();
  ExactOnlyGuard guard(true);
  const sim::SimResult exact = run();
  EXPECT_EQ(filtered.met, exact.met);
  EXPECT_EQ(filtered.reason, exact.reason);
  EXPECT_EQ(filtered.events, exact.events);
  EXPECT_EQ(filtered.instructions_a, exact.instructions_a);
  EXPECT_EQ(filtered.instructions_b, exact.instructions_b);
  EXPECT_TRUE(same_double_bits(filtered.meet_time, exact.meet_time));
  EXPECT_TRUE(same_double_bits(filtered.min_distance_seen, exact.min_distance_seen));
  EXPECT_TRUE(same_double_bits(filtered.final_distance, exact.final_distance));
  EXPECT_TRUE(same_double_bits(filtered.a_position.x, exact.a_position.x));
  EXPECT_TRUE(same_double_bits(filtered.a_position.y, exact.a_position.y));
  EXPECT_TRUE(same_double_bits(filtered.b_position.x, exact.b_position.x));
  EXPECT_TRUE(same_double_bits(filtered.b_position.y, exact.b_position.y));
}

TEST(FilteredKernel, Dyadic128ViewRoundTripsThroughRational) {
  std::mt19937_64 rng(8086);
  for (int round = 0; round < 2000; ++round) {
    const Rational value = random_rational(rng);
    __int128 mantissa = 0;
    std::int64_t scale = 0;
    if (!value.dyadic128_view(mantissa, scale)) continue;
    EXPECT_EQ(Rational::from_dyadic128(mantissa, scale), value) << value.to_string();
  }
  // Wide-but-fitting and just-too-wide mantissas around the 127-bit cap.
  __int128 mantissa = 0;
  std::int64_t scale = 0;
  EXPECT_TRUE((Rational::pow2(126) + Rational(1)).dyadic128_view(mantissa, scale));
  EXPECT_EQ(Rational::from_dyadic128(mantissa, scale), Rational::pow2(126) + Rational(1));
  EXPECT_FALSE((Rational::pow2(127) + Rational(1)).dyadic128_view(mantissa, scale));
  // Trailing zeros rescue wide raw numerators: 2^200 has one significant bit.
  EXPECT_TRUE(Rational::pow2(200).dyadic128_view(mantissa, scale));
  EXPECT_EQ(Rational::from_dyadic128(mantissa, scale), Rational::pow2(200));
  EXPECT_FALSE(Rational(BigInt(1), BigInt(3)).dyadic128_view(mantissa, scale));
}

}  // namespace
}  // namespace aurv::numeric
