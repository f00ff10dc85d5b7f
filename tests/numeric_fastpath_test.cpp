// Randomized differential tests: the numeric layer's in-place and
// inline-tier paths (BigInt in-place ops, Rational's __int128 tier with its
// dyadic shift-align addition, the big tier's cross-multiply path) must be
// bit-exact against general reference formulas over mixed small / huge /
// dyadic / non-dyadic operands, including the tier-transition boundaries
// (|v| around 2^62 for the Rational inline tier, 2 -> 3 limbs at 2^128).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "numeric/bigint.hpp"
#include "numeric/rational.hpp"

namespace aurv::numeric {
namespace {

using u64 = std::uint64_t;

// ---------------------------------------------------------------- BigInt --

/// Reference addition via the public string round-trip is overkill; instead
/// cross-check the in-place ops against the expression forms, which share
/// only the primitive magnitude helpers, and against algebraic identities.
BigInt random_bigint(std::mt19937_64& rng, int max_limbs) {
  std::uniform_int_distribution<int> limb_count(0, max_limbs);
  std::uniform_int_distribution<u64> limb;
  const int limbs = limb_count(rng);
  BigInt value;
  for (int i = 0; i < limbs; ++i) {
    value <<= 64;
    value += BigInt(limb(rng));
  }
  // Bias toward boundary shapes: exact powers of two, all-ones, tiny.
  switch (rng() % 8) {
    case 0: value = BigInt::pow2(static_cast<u64>(rng() % 200)); break;
    case 1: value = BigInt::pow2(static_cast<u64>(rng() % 200)) - BigInt(1); break;
    case 2: value = BigInt(static_cast<long long>(rng() % 5)); break;
    default: break;
  }
  if (rng() % 2 == 0) value = -value;
  return value;
}

TEST(FastPathBigInt, AddSubRoundTrip) {
  std::mt19937_64 rng(20260729);
  for (int round = 0; round < 4000; ++round) {
    const BigInt a = random_bigint(rng, 5);
    const BigInt b = random_bigint(rng, 5);
    BigInt acc = a;
    acc += b;                       // in-place (capacity-reusing) path
    EXPECT_EQ(acc, a + b);          // expression path
    EXPECT_EQ(acc - b, a);          // subtraction inverts addition
    EXPECT_EQ(acc - a, b);
    BigInt neg = a;
    neg -= b;
    EXPECT_EQ(neg, a - b);
    EXPECT_EQ(neg + b, a);
  }
}

TEST(FastPathBigInt, SpillBoundaryTwoToThreeLimbs) {
  // 2^128 is the first value with three limbs.
  const BigInt below = BigInt::pow2(128) - BigInt(1);
  BigInt spilled = below;
  spilled += BigInt(1);
  EXPECT_EQ(spilled, BigInt::pow2(128));
  // Arithmetic across the limb boundary stays exact both directions.
  spilled -= BigInt(1);
  EXPECT_EQ(spilled, below);
  EXPECT_EQ(spilled.to_string(), below.to_string());
  // Shift across the boundary and back.
  BigInt shifted = BigInt::pow2(127);
  shifted <<= 1;
  EXPECT_EQ(shifted, BigInt::pow2(128));
  shifted >>= 1;
  EXPECT_EQ(shifted, BigInt::pow2(127));
}

TEST(FastPathBigInt, MulSmallFastPathMatchesSchoolbook) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<u64> limb;
  for (int round = 0; round < 2000; ++round) {
    // One-limb operands: cross-check against the same product computed
    // through multi-limb operands and against a 128-bit product.
    const u64 raw_a = limb(rng);
    const u64 raw_b = limb(rng);
    const BigInt a(raw_a);
    const BigInt b(raw_b);
    const BigInt fast = a * b;
    BigInt slow = a << 64;  // two-limb shape of the same magnitude, scaled
    slow *= b;
    EXPECT_EQ(fast << 64, slow);
    const unsigned __int128 expect =
        static_cast<unsigned __int128>(raw_a) * raw_b;
    EXPECT_EQ(fast, (BigInt(static_cast<unsigned long long>(expect >> 64)) << 64) +
                        BigInt(static_cast<unsigned long long>(expect)));
  }
}

// -------------------------------------------------------------- Rational --

/// General-path reference: combine through BigInt cross multiplication and
/// gcd-canonicalize explicitly, bypassing the inline tier's shortcuts.
Rational ref_add(const Rational& a, const Rational& b, int sign_mult) {
  const BigInt an = a.numerator(), ad = a.denominator();
  const BigInt bn = b.numerator(), bd = b.denominator();
  BigInt num = an * bd;
  if (sign_mult > 0) {
    num += bn * ad;
  } else {
    num -= bn * ad;
  }
  BigInt den = ad * bd;
  if (num.is_zero()) return Rational(0);
  const BigInt g = BigInt::gcd(num, den);
  return Rational(num / g, den / g);
}

Rational ref_mul(const Rational& a, const Rational& b) {
  return Rational(a.numerator() * b.numerator(), a.denominator() * b.denominator());
}

int ref_compare(const Rational& a, const Rational& b) {
  const BigInt left = a.numerator() * b.denominator();
  const BigInt right = b.numerator() * a.denominator();
  if (left < right) return -1;
  if (left > right) return 1;
  return 0;
}

/// Mixed operand pool: inline/big x dyadic/non-dyadic, clustered around the
/// inline-tier boundary 2^62 and the paper's huge phase waits.
Rational random_rational(std::mt19937_64& rng) {
  const auto small = [&]() -> long long {
    return static_cast<long long>(rng() % 2048) - 1024;
  };
  const auto sign = [&]() -> long long { return rng() % 2 == 0 ? 1 : -1; };
  switch (rng() % 10) {
    case 8:  // inline dyadic, numerator just below +-2^62, exponent 0..61
      return Rational::dyadic(sign() * ((1LL << 62) - 1 - static_cast<long long>(rng() % 4096)),
                              rng() % 62);
    case 9:  // few inline dyadics near 2^62 (so pairs repeat and cancel)
      return Rational::dyadic(sign() * ((1LL << 62) - 1 - static_cast<long long>(rng() % 4)),
                              rng() % 3);
    case 0:  // small non-dyadic
      return Rational(BigInt(small()), BigInt(small() * 2 + 1));
    case 1:  // small dyadic
      return Rational::dyadic(small(), rng() % 10);
    case 2:  // inline boundary: numerators straddling 2^62
      return Rational(BigInt::pow2(62) + BigInt(small()), BigInt(small() * 2 + 1));
    case 3:  // inline boundary: dyadic with den straddling 2^61..2^63
      return Rational::dyadic(small() * 2 + 1, 60 + rng() % 4);
    case 4:  // huge dyadic (phase-wait shape)
      return Rational::pow2(100 + rng() % 300) + Rational::dyadic(small(), 1 + rng() % 12);
    case 5:  // huge non-dyadic
      return Rational(BigInt::pow2(100 + rng() % 200) + BigInt(small()),
                      BigInt::pow2(50) + BigInt(3));
    case 6:  // negative huge dyadic
      return -(Rational::pow2(100 + rng() % 300) + Rational::dyadic(small(), 1 + rng() % 12));
    default:  // zero and integers
      return Rational(small());
  }
}

void expect_same(const Rational& fast, const Rational& reference, const char* what,
                 const Rational& a, const Rational& b) {
  EXPECT_EQ(fast, reference) << what << "\n  a = " << a.to_string()
                             << "\n  b = " << b.to_string()
                             << "\n  fast = " << fast.to_string()
                             << "\n  ref  = " << reference.to_string();
  // Representation must be canonical and tier-correct, not just equal.
  EXPECT_EQ(fast.numerator(), reference.numerator()) << what;
  EXPECT_EQ(fast.denominator(), reference.denominator()) << what;
  EXPECT_EQ(fast.is_inline(), reference.is_inline()) << what;
}

TEST(FastPathRational, AddSubDifferential) {
  std::mt19937_64 rng(20260729);
  for (int round = 0; round < 3000; ++round) {
    const Rational a = random_rational(rng);
    const Rational b = random_rational(rng);
    Rational sum = a;
    sum += b;
    expect_same(sum, ref_add(a, b, 1), "a += b", a, b);
    Rational diff = a;
    diff -= b;
    expect_same(diff, ref_add(a, b, -1), "a -= b", a, b);
    // Round trip restores the original representation exactly.
    Rational back = sum;
    back -= b;
    expect_same(back, a, "(a + b) - b", a, b);
    Rational cancelled = a;
    cancelled += -a;
    expect_same(cancelled, ref_add(a, -a, 1), "a + (-a)", a, -a);
  }
}

TEST(FastPathRational, MulDivDifferential) {
  std::mt19937_64 rng(99);
  for (int round = 0; round < 3000; ++round) {
    const Rational a = random_rational(rng);
    const Rational b = random_rational(rng);
    Rational product = a;
    product *= b;
    expect_same(product, ref_mul(a, b), "a *= b", a, b);
    if (!b.is_zero()) {
      Rational quotient = a;
      quotient /= b;
      expect_same(quotient, ref_mul(a, b.reciprocal()), "a /= b", a, b);
    }
  }
}

TEST(FastPathRational, CompareDifferential) {
  std::mt19937_64 rng(123);
  for (int round = 0; round < 5000; ++round) {
    const Rational a = random_rational(rng);
    const Rational b = random_rational(rng);
    const int reference = ref_compare(a, b);
    const std::strong_ordering fast = a <=> b;
    const int got = fast < 0 ? -1 : (fast > 0 ? 1 : 0);
    EXPECT_EQ(got, reference) << "a = " << a.to_string() << "\nb = " << b.to_string();
    EXPECT_EQ(a == b, reference == 0);
  }
}

TEST(FastPathRational, CompareBigDyadicsWithTiedLeadingBits) {
  // Big dyadic pairs whose leading bits sit at the same position, so the
  // order is decided by the lower bits alone, across distinct denominators.
  std::mt19937_64 rng(2718);
  for (int round = 0; round < 2000; ++round) {
    const std::uint64_t top = 100 + rng() % 300;  // value in [2^top, 2^(top+1))
    const std::uint64_t ea = 1 + rng() % 80;
    const std::uint64_t eb = 1 + rng() % 80;
    const long long low_a = static_cast<long long>(rng() % 1024) * 2 + 1;
    const long long low_b = static_cast<long long>(rng() % 1024) * 2 + 1;
    Rational a = Rational::pow2(top) + Rational::dyadic(low_a, ea);
    Rational b = Rational::pow2(top) + Rational::dyadic(low_b, eb);
    if (rng() % 2 == 0) {
      a = -a;
      b = -b;
    }
    ASSERT_FALSE(a.is_inline());
    ASSERT_TRUE(a.is_dyadic() && b.is_dyadic());
    ASSERT_EQ(a.numerator().bit_length() - a.denominator().bit_length(),
              b.numerator().bit_length() - b.denominator().bit_length());
    const std::strong_ordering got = a <=> b;
    EXPECT_EQ(got < 0 ? -1 : (got > 0 ? 1 : 0), ref_compare(a, b))
        << "a = " << a.to_string() << "\nb = " << b.to_string();
    EXPECT_EQ(a == b, ref_compare(a, b) == 0);
    const Rational same = Rational::pow2(top) + Rational::dyadic(low_a * 2, ea + 1);
    EXPECT_EQ(Rational::pow2(top) + Rational::dyadic(low_a, ea) <=> same,
              std::strong_ordering::equal);
  }
}

TEST(FastPathRational, SelfAliasingOps) {
  std::mt19937_64 rng(5);
  for (int round = 0; round < 500; ++round) {
    const Rational a = random_rational(rng);
    Rational doubled = a;
    doubled += doubled;
    expect_same(doubled, ref_add(a, a, 1), "x += x", a, a);
    Rational zero = a;
    zero -= zero;
    EXPECT_TRUE(zero.is_zero()) << a.to_string();
    EXPECT_TRUE(zero.is_inline());
    Rational squared = a;
    squared *= squared;
    expect_same(squared, ref_mul(a, a), "x *= x", a, a);
  }
}

TEST(FastPathRational, InlineTierBoundaryExact) {
  // 2^62 - 1 is the largest inline numerator; one more promotes.
  const Rational max_inline((std::int64_t{1} << 62) - 1);
  EXPECT_TRUE(max_inline.is_inline());
  Rational promoted = max_inline;
  promoted += Rational(1);
  EXPECT_FALSE(promoted.is_inline());
  EXPECT_EQ(promoted.numerator(), BigInt::pow2(62));
  // And the demotion on the way back down is exact.
  promoted -= Rational(1);
  EXPECT_TRUE(promoted.is_inline());
  EXPECT_EQ(promoted, max_inline);
  // Denominator side: 2^61 stays inline, 2^62 promotes.
  EXPECT_TRUE(Rational::dyadic(1, 61).is_inline());
  EXPECT_FALSE(Rational::dyadic(1, 62).is_inline());
  EXPECT_EQ(Rational::dyadic(1, 61) * Rational::dyadic(1, 1), Rational::dyadic(1, 62));
}

TEST(FastPathRational, CopyAssignmentAcrossTiers) {
  const auto expect_copy = [](const Rational& copy, const Rational& source, const char* what) {
    EXPECT_EQ(copy, source) << what;
    EXPECT_EQ(copy.is_inline(), source.is_inline()) << what;
    EXPECT_EQ(copy.numerator(), source.numerator()) << what;
    EXPECT_EQ(copy.denominator(), source.denominator()) << what;
    // Arithmetic on the copy still agrees.
    EXPECT_EQ(copy.is_dyadic(), source.is_dyadic()) << what;
    const Rational probe = Rational::dyadic(1, 20);
    EXPECT_EQ(copy + probe, ref_add(source, probe, 1)) << what;
  };
  const Rational inline_value = Rational::dyadic(-12345, 7);
  const Rational two_limbs = Rational::pow2(100) + Rational::dyadic(3, 9);   // < 2^128
  const Rational five_limbs = -Rational::pow2(300) + Rational::dyadic(5, 2);  // 5 limbs
  const Rational non_dyadic = Rational(BigInt::pow2(200) + BigInt(1), BigInt(3));
  ASSERT_TRUE(inline_value.is_inline());
  ASSERT_FALSE(two_limbs.is_inline());
  ASSERT_FALSE(five_limbs.is_inline());
  ASSERT_FALSE(non_dyadic.is_dyadic());

  Rational value = inline_value;
  value = two_limbs;  // inline <- big
  expect_copy(value, two_limbs, "inline <- big");
  value = five_limbs;  // big <- big, more limbs
  expect_copy(value, five_limbs, "big <- big (2 -> 5 limbs)");
  value = two_limbs;  // big <- big, fewer limbs
  expect_copy(value, two_limbs, "big <- big (5 -> 2 limbs)");
  value = non_dyadic;  // big <- big, dyadic -> non-dyadic
  expect_copy(value, non_dyadic, "big <- big (dyadic -> non-dyadic)");
  value = five_limbs;  // and set again
  expect_copy(value, five_limbs, "big <- big (non-dyadic -> dyadic)");
  value = inline_value;  // big <- inline
  expect_copy(value, inline_value, "big <- inline");

  for (const Rational& source : {inline_value, two_limbs, five_limbs, non_dyadic}) {
    Rational self = source;
    const Rational& alias = self;
    self = alias;  // self-assignment
    expect_copy(self, source, "self-assignment");
    const Rational copied(self);  // copy construction
    expect_copy(copied, source, "copy construction");
  }
}

TEST(FastPathRational, DyadicObservability) {
  EXPECT_TRUE(Rational(0).is_dyadic());
  EXPECT_TRUE(Rational(7).is_dyadic());
  EXPECT_TRUE(Rational::dyadic(3, 5).is_dyadic());
  EXPECT_TRUE((Rational::pow2(375) + Rational::dyadic(3, 7)).is_dyadic());
  EXPECT_FALSE(Rational(BigInt(1), BigInt(3)).is_dyadic());
  EXPECT_FALSE(Rational(BigInt(1), BigInt::pow2(100) + BigInt(1)).is_dyadic());
  // Dyadic-ness is a property of the value, surviving arithmetic that
  // cancels the odd parts: (1/3) * 3 = 1 is dyadic again.
  EXPECT_TRUE((Rational(BigInt(1), BigInt(3)) * Rational(3)).is_dyadic());
}

TEST(FastPathRational, FloorCeilDifferential) {
  std::mt19937_64 rng(17);
  for (int round = 0; round < 2000; ++round) {
    const Rational a = random_rational(rng);
    const BigInt::DivModResult dm = BigInt::divmod(a.numerator(), a.denominator());
    BigInt floor_ref = dm.quotient;
    if (a.is_negative() && !dm.remainder.is_zero()) floor_ref -= BigInt(1);
    BigInt ceil_ref = dm.quotient;
    if (!a.is_negative() && !dm.remainder.is_zero()) ceil_ref += BigInt(1);
    EXPECT_EQ(a.floor(), floor_ref) << a.to_string();
    EXPECT_EQ(a.ceil(), ceil_ref) << a.to_string();
  }
}

}  // namespace
}  // namespace aurv::numeric
