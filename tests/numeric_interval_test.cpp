// Tests for the outward-rounded interval enclosure and for the engine's
// exact-only contact mode: FInterval::enclose must always contain the true
// value and must claim a point exactly when the value is a double, and an
// engine run must produce the same bytes whether the contact predicates
// take their double filter or go straight to Rational.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "agents/instance.hpp"
#include "core/almost_universal.hpp"
#include "geom/closest_approach.hpp"
#include "numeric/interval.hpp"
#include "numeric/rational.hpp"
#include "sim/engine.hpp"

namespace aurv::numeric {
namespace {

/// RAII toggle for the global exact-only contact mode: restores the
/// previous mode so tests never leak the flag into each other (the suite
/// also runs with AURV_EXACT_ONLY=1 in CI, where the ambient mode is on).
class ExactOnlyGuard {
 public:
  explicit ExactOnlyGuard(bool exact_only) : previous_(geom::exact_contacts_only()) {
    geom::set_exact_contacts_only(exact_only);
  }
  ~ExactOnlyGuard() { geom::set_exact_contacts_only(previous_); }

 private:
  bool previous_;
};

bool same_double_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Random rationals across Rational's representations: inline integers and
/// dyadics, big dyadics up to and past 127 mantissa bits, non-dyadics, and
/// huge integers.
Rational random_rational(std::mt19937_64& rng) {
  const auto small = [&](std::uint64_t bound) {
    return static_cast<long long>(rng() % bound) - static_cast<long long>(bound / 2);
  };
  switch (rng() % 6) {
    case 0:  // small integer
      return Rational(small(1000));
    case 1:  // small dyadic: exactly representable as a double
      return Rational::dyadic(small(1 << 20), rng() % 30);
    case 2:  // big dyadic within 127 mantissa bits, mostly wider than a double's
      return Rational::pow2(40 + rng() % 40) + Rational::dyadic(small(1 << 20), rng() % 50);
    case 3:  // wide dyadic: > 127 mantissa bits
      return Rational::pow2(150 + rng() % 100) + Rational::dyadic(1 + small(64) % 7, 30 + rng() % 30);
    case 4:  // non-dyadic
      return Rational(BigInt(small(10000)), BigInt(1 + rng() % 97));
    default:  // huge magnitude integer
      return Rational::pow2(300 + rng() % 80) - Rational(small(50));
  }
}

/// Oracle independent of Rational::to_double: the value is some finite
/// double iff it is m * 2^e with odd m of at most 53 bits, e >= -1074 (the
/// subnormal floor), and m * 2^e < 2^1024.
bool exactly_a_double(const Rational& value) {
  if (value.is_zero()) return true;
  if (!value.is_dyadic()) return false;
  const BigInt numerator = value.numerator();
  const auto zeros = static_cast<std::int64_t>(numerator.trailing_zero_bits());
  const auto odd_bits = static_cast<std::int64_t>(numerator.bit_length()) - zeros;
  const auto den_exp = static_cast<std::int64_t>(value.denominator().bit_length()) - 1;
  const std::int64_t exponent = zeros - den_exp;
  return odd_bits <= 53 && exponent >= -1074 && odd_bits + exponent <= 1024;
}

void expect_sound_enclosure(const Rational& value) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const FInterval interval = FInterval::enclose(value);
  ASSERT_FALSE(std::isnan(interval.lo) || std::isnan(interval.hi)) << value.to_string();
  ASSERT_LE(interval.lo, interval.hi) << value.to_string();
  if (interval.lo != -kInf) {
    EXPECT_LE(Rational::from_double(interval.lo), value) << value.to_string();
  }
  if (interval.hi != kInf) {
    EXPECT_GE(Rational::from_double(interval.hi), value) << value.to_string();
  }
  EXPECT_EQ(interval.is_point(), exactly_a_double(value))
      << "point interval iff exactly representable: " << value.to_string();
  if (interval.is_point()) {
    EXPECT_EQ(Rational::from_double(interval.lo), value);
  }
}

TEST(FInterval, IntervalAlwaysEnclosesAndPointsAreExact) {
  std::mt19937_64 rng(777);
  for (int round = 0; round < 4000; ++round) {
    const Rational value = random_rational(rng);
    expect_sound_enclosure(value);
    expect_sound_enclosure(-value);
  }
  const Rational max_double = Rational::pow2(1024) - Rational::pow2(971);
  const std::vector<Rational> edges = {
      Rational(0),
      Rational::pow2(52) + Rational(1),    // 53 bits: a double
      Rational::pow2(53) + Rational(1),    // 54 bits: not one
      Rational::pow2(60) + Rational::dyadic(3, 60),
      Rational::pow2(126) + Rational(1),   // 127 bits
      Rational::pow2(127) + Rational(1),   // 128 bits
      Rational::pow2(200),                 // one significant bit, big tier
      Rational::pow2(200) + Rational::dyadic(1, 100),
      Rational::dyadic(1, 120),
      Rational::dyadic((1ll << 53) - 1, 1074 + 52),  // odd 53-bit mantissa below 2^-1074
      Rational::dyadic(1, 1074),           // smallest subnormal
      Rational::dyadic(3, 1075),           // between two subnormals
      Rational::dyadic(1, 1100),           // below every subnormal
      Rational(BigInt(1), BigInt(3)),
      Rational(BigInt(1), BigInt(3)) * Rational::pow2(2000),  // non-dyadic, beyond range
      Rational::pow2(1023),
      max_double,
      Rational::pow2(1024) - Rational::pow2(970),  // 54 bits, rounds to inf
      Rational::pow2(1024),
      Rational::pow2(1100) + Rational(1),
  };
  for (const Rational& value : edges) {
    expect_sound_enclosure(value);
    expect_sound_enclosure(-value);
  }
  EXPECT_TRUE(FInterval::enclose(max_double).is_point());
  EXPECT_EQ(FInterval::enclose(Rational::pow2(1024)).hi, std::numeric_limits<double>::infinity());
}

TEST(ExactOnlyContacts, EngineRunsAreByteIdenticalWithExactOnlyContacts) {
  // The soundness contract made observable: the simulation reaches the same
  // meet time, positions, and event count whether the contact predicates
  // take their double filter or their exact path. This is the in-process
  // twin of the CI byte-compare.
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

}  // namespace
}  // namespace aurv::numeric
