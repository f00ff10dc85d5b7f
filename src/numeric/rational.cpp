#include "numeric/rational.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "support/check.hpp"

namespace aurv::numeric {

namespace {

using i128 = __int128;
using u128 = unsigned __int128;

u128 magnitude(i128 value) { return value < 0 ? -static_cast<u128>(value) : static_cast<u128>(value); }

u128 gcd_u128(u128 a, u128 b) {
  while (b != 0) {
    const u128 rest = a % b;
    a = b;
    b = rest;
  }
  return a;
}

unsigned tz_u128(u128 value) {
  const auto low = static_cast<std::uint64_t>(value);
  if (low != 0) return static_cast<unsigned>(std::countr_zero(low));
  return 64 + static_cast<unsigned>(std::countr_zero(static_cast<std::uint64_t>(value >> 64)));
}

BigInt bigint_from_i128(i128 value) {
  const bool negative = value < 0;
  const u128 mag = magnitude(value);
  BigInt result = (BigInt(static_cast<unsigned long long>(mag >> 64)) << 64) +
                  BigInt(static_cast<unsigned long long>(mag));
  return negative ? -result : result;
}

/// |value| <= kInlineMax check on a BigInt via bit length (bit_length <= 62
/// means |v| < 2^62).
bool fits_inline(const BigInt& value) { return value.bit_length() <= 62; }

}  // namespace

Rational::Rational(long long value) {
  if (value >= -kInlineMax && value <= kInlineMax) {
    num_ = value;
    den_ = 1;
  } else {
    big_ = std::make_unique<Big>(Big{BigInt(value), BigInt(1)});
  }
}

Rational::Rational(BigInt value) : Rational(from_bigints(std::move(value), BigInt(1))) {}

Rational::Rational(BigInt numerator, BigInt denominator)
    : Rational(from_bigints(std::move(numerator), std::move(denominator))) {}

void Rational::assign_big(const Big& big) {
  if (big_) {
    *big_ = big;  // copy-assignment keeps the existing limb buffers
  } else {
    big_ = std::make_unique<Big>(big);
  }
}

Rational Rational::from_i128(i128 numerator, i128 denominator) {
  AURV_CHECK_MSG(denominator != 0, "Rational with zero denominator");
  if (denominator < 0) {
    numerator = -numerator;
    denominator = -denominator;
  }
  if (numerator == 0) {
    return Rational();
  }
  const auto uden = static_cast<u128>(denominator);
  if ((uden & (uden - 1)) == 0) {
    // Dyadic: the reduction is a pair of exact shifts, no gcd. Arithmetic
    // right shift of a negative numerator is exact here (2^t divides it).
    const unsigned t = std::min(tz_u128(magnitude(numerator)), tz_u128(uden));
    numerator >>= t;
    denominator >>= t;
  } else {
    const u128 g = gcd_u128(magnitude(numerator), uden);
    if (g > 1) {
      numerator /= static_cast<i128>(g);  // exact: g divides both
      denominator /= static_cast<i128>(g);
    }
  }
  if (magnitude(numerator) <= static_cast<u128>(kInlineMax) &&
      static_cast<u128>(denominator) <= static_cast<u128>(kInlineMax)) {
    Rational result;
    result.num_ = static_cast<std::int64_t>(numerator);
    result.den_ = static_cast<std::int64_t>(denominator);
    return result;
  }
  return Rational(
      std::make_unique<Big>(Big{bigint_from_i128(numerator), bigint_from_i128(denominator)}));
}

Rational Rational::from_bigints(BigInt numerator, BigInt denominator) {
  AURV_CHECK_MSG(!denominator.is_zero(), "Rational with zero denominator");
  if (denominator.is_negative()) {
    numerator.negate();
    denominator.negate();
  }
  if (numerator.is_zero()) return Rational();
  if (denominator.is_pow2()) {
    // Dyadic (integers included): normalize by trailing zeros. Stein's gcd
    // against a denominator of 1 would step one bit at a time.
    const std::uint64_t t =
        std::min(numerator.trailing_zero_bits(), denominator.trailing_zero_bits());
    numerator >>= t;
    denominator >>= t;
  } else if (const BigInt g = BigInt::gcd(numerator, denominator); g != BigInt(1)) {
    numerator = numerator / g;
    denominator = denominator / g;
  }
  if (fits_inline(numerator) && fits_inline(denominator)) {
    Rational result;
    result.num_ = numerator.to_int64();
    result.den_ = denominator.to_int64();
    return result;
  }
  return Rational(std::make_unique<Big>(Big{std::move(numerator), std::move(denominator)}));
}

void Rational::try_demote() {
  if (!big_) return;
  if (fits_inline(big_->num) && fits_inline(big_->den)) {
    num_ = big_->num.to_int64();
    den_ = big_->den.to_int64();
    big_.reset();
  }
}

const BigInt& Rational::num_ref(BigInt& store) const {
  if (big_) return big_->num;
  store = BigInt(num_);
  return store;
}

const BigInt& Rational::den_ref(BigInt& store) const {
  if (big_) return big_->den;
  store = BigInt(den_);
  return store;
}

Rational Rational::dyadic(long long numerator, std::uint64_t pow2_exponent) {
  if (pow2_exponent < 62) {
    return from_i128(numerator, i128{1} << pow2_exponent);
  }
  return from_bigints(BigInt(numerator), BigInt::pow2(pow2_exponent));
}

Rational Rational::pow2(std::uint64_t exponent) {
  if (exponent < 62) {
    Rational result;
    result.num_ = std::int64_t{1} << exponent;
    return result;
  }
  return Rational(std::make_unique<Big>(Big{BigInt::pow2(exponent), BigInt(1)}));
}

Rational Rational::from_string(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return Rational(BigInt::from_string(text));
  return from_bigints(BigInt::from_string(text.substr(0, slash)),
                      BigInt::from_string(text.substr(slash + 1)));
}

Rational Rational::from_double(double value) {
  if (!std::isfinite(value)) throw std::invalid_argument("Rational::from_double: non-finite");
  if (value == 0.0) return Rational();
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // value = mantissa * 2^exponent
  // Scale the mantissa to a 53-bit integer: mantissa * 2^53 is integral.
  const auto scaled = static_cast<long long>(std::ldexp(mantissa, 53));
  const std::int64_t shift = exponent - 53;
  if (shift >= 0) {
    if (shift <= 62) return from_i128(static_cast<i128>(scaled) << shift, 1);
    return Rational(BigInt(scaled) << static_cast<std::uint64_t>(shift));
  }
  return dyadic(scaled, static_cast<std::uint64_t>(-shift));
}

BigInt Rational::numerator() const { return big_ ? big_->num : BigInt(num_); }
BigInt Rational::denominator() const { return big_ ? big_->den : BigInt(den_); }

Rational Rational::operator-() const {
  if (!big_) {
    Rational result;
    result.num_ = -num_;
    result.den_ = den_;
    return result;
  }
  return Rational(std::make_unique<Big>(Big{-big_->num, big_->den}));
}

Rational Rational::abs() const { return is_negative() ? -*this : *this; }

Rational Rational::reciprocal() const {
  AURV_CHECK_MSG(!is_zero(), "reciprocal of zero");
  if (!big_) {
    Rational result;
    if (num_ < 0) {
      result.num_ = -den_;
      result.den_ = -num_;
    } else {
      result.num_ = den_;
      result.den_ = num_;
    }
    return result;
  }
  Big flipped{big_->den, big_->num};
  if (flipped.den.is_negative()) {
    flipped.num.negate();
    flipped.den.negate();
  }
  Rational result(std::make_unique<Big>(std::move(flipped)));
  result.try_demote();  // e.g. reciprocal of 1/2^100 is an integer tier... still big; harmless
  return result;
}

void Rational::add_impl(const Rational& rhs, int sign_mult) {
  const auto da = static_cast<std::uint64_t>(den_);
  const auto db = static_cast<std::uint64_t>(rhs.den_);
  // Power-of-two test by bit trick: std::has_single_bit may compile to a
  // libgcc popcount call on the baseline x86-64 target.
  if (!big_ && !rhs.big_ && ((da & (da - 1)) | (db & (db - 1))) == 0) {
    // Dyadic: shift-align both numerators to the larger denominator 2^e
    // (|num| < 2^62, shifts <= 61: the sum stays below 2^124), then cancel
    // common factors of two. No products; from_i128 only to promote.
    const int ea = std::countr_zero(da);
    const int eb = std::countr_zero(db);
    const int e = std::max(ea, eb);
    i128 sum = (static_cast<i128>(sign_mult < 0 ? -rhs.num_ : rhs.num_) << (e - eb)) +
               (static_cast<i128>(num_) << (e - ea));
    if (sum == 0) {
      num_ = 0;
      den_ = 1;
      return;
    }
    const unsigned t = std::min(tz_u128(static_cast<u128>(sum)), static_cast<unsigned>(e));
    sum >>= t;  // exact: 2^t divides the sum
    const std::int64_t den = std::int64_t{1} << (static_cast<unsigned>(e) - t);
    if (sum < -kInlineMax || sum > kInlineMax) {
      *this = from_i128(sum, den);
      return;
    }
    num_ = static_cast<std::int64_t>(sum);
    den_ = den;
    return;
  }
  if (!big_ && !rhs.big_) {
    // |a|,|b| < 2^62: each product < 2^124, their sum < 2^125 < 2^127.
    const i128 numerator = static_cast<i128>(num_) * rhs.den_ +
                           sign_mult * static_cast<i128>(rhs.num_) * den_;
    const i128 denominator = static_cast<i128>(den_) * rhs.den_;
    *this = from_i128(numerator, denominator);
    return;
  }
  BigInt num_store, den_store, rhs_store, rhs_den_store;
  const BigInt& a_num = num_ref(num_store);
  const BigInt& a_den = den_ref(den_store);
  const BigInt& b_num = rhs.num_ref(rhs_store);
  const BigInt& b_den = rhs.den_ref(rhs_den_store);
  BigInt num = a_num * b_den;
  BigInt cross = b_num * a_den;
  if (sign_mult < 0) cross.negate();
  num += cross;
  *this = from_bigints(std::move(num), a_den * b_den);
}

Rational& Rational::operator+=(const Rational& rhs) {
  add_impl(rhs, 1);
  return *this;
}

Rational& Rational::operator-=(const Rational& rhs) {
  add_impl(rhs, -1);
  return *this;
}

Rational& Rational::operator*=(const Rational& rhs) {
  if (!big_ && !rhs.big_) {
    return *this = from_i128(static_cast<i128>(num_) * rhs.num_,
                             static_cast<i128>(den_) * rhs.den_);
  }
  BigInt a_store, b_store, a_den_store, b_den_store;
  const BigInt& a_num = num_ref(a_store);
  const BigInt& a_den = den_ref(a_den_store);
  const BigInt& b_num = rhs.num_ref(b_store);
  const BigInt& b_den = rhs.den_ref(b_den_store);
  return *this = from_bigints(a_num * b_num, a_den * b_den);
}

Rational& Rational::operator/=(const Rational& rhs) {
  AURV_CHECK_MSG(!rhs.is_zero(), "Rational division by zero");
  if (!big_ && !rhs.big_) {
    return *this = from_i128(static_cast<i128>(num_) * rhs.den_,
                             static_cast<i128>(den_) * rhs.num_);
  }
  BigInt a_num_store, a_den_store, b_num_store, b_den_store;
  const BigInt& a_num = num_ref(a_num_store);
  const BigInt& a_den = den_ref(a_den_store);
  const BigInt& b_num = rhs.num_ref(b_num_store);
  const BigInt& b_den = rhs.den_ref(b_den_store);
  return *this = from_bigints(a_num * b_den, a_den * b_num);
}

bool Rational::big_equal(const Big& lhs, const Big& rhs) noexcept {
  return lhs.num == rhs.num && lhs.den == rhs.den;
}

std::strong_ordering Rational::big_compare(const Rational& lhs, const Rational& rhs) noexcept {
  const int sign_a = lhs.sign();
  const int sign_b = rhs.sign();
  if (sign_a != sign_b) return sign_a <=> sign_b;
  // sign_a == sign_b != 0: a big-tier value is never zero.
  BigInt a_store, b_store, a_den_store, b_den_store;
  const BigInt& a_num = lhs.num_ref(a_store);
  const BigInt& b_num = rhs.num_ref(b_store);
  const BigInt& a_den = lhs.den_ref(a_den_store);
  const BigInt& b_den = rhs.den_ref(b_den_store);
  return a_num * b_den <=> b_num * a_den;
}

BigInt Rational::floor() const {
  if (!big_) {
    std::int64_t quotient = num_ / den_;
    if (num_ % den_ != 0 && num_ < 0) --quotient;
    return BigInt(quotient);
  }
  const BigInt::DivModResult dm = BigInt::divmod(big_->num, big_->den);
  if (big_->num.is_negative() && !dm.remainder.is_zero()) return dm.quotient - BigInt(1);
  return dm.quotient;
}

BigInt Rational::ceil() const {
  if (!big_) {
    std::int64_t quotient = num_ / den_;
    if (num_ % den_ != 0 && num_ > 0) ++quotient;
    return BigInt(quotient);
  }
  const BigInt::DivModResult dm = BigInt::divmod(big_->num, big_->den);
  if (!big_->num.is_negative() && !dm.remainder.is_zero()) return dm.quotient + BigInt(1);
  return dm.quotient;
}

double Rational::big_to_double() const noexcept {
  const BigInt& num = big_->num;
  const BigInt& den = big_->den;
  if (num.is_zero()) return 0.0;
  // Align both operands so the division happens on ~62 significant bits,
  // then restore the binary exponent with ldexp. Avoids overflow/underflow
  // of the separate to_double() conversions for huge operands.
  const std::int64_t nbits = static_cast<std::int64_t>(num.bit_length());
  const std::int64_t dbits = static_cast<std::int64_t>(den.bit_length());
  constexpr std::int64_t kTarget = 62;
  BigInt n = num.abs();
  BigInt d = den;
  std::int64_t exponent = 0;
  if (nbits > kTarget) {
    n >>= static_cast<std::uint64_t>(nbits - kTarget);
    exponent += nbits - kTarget;
  }
  if (dbits > kTarget) {
    d >>= static_cast<std::uint64_t>(dbits - kTarget);
    exponent -= dbits - kTarget;
  }
  const double quotient = n.to_double() / d.to_double();
  const double result = std::ldexp(quotient, static_cast<int>(exponent));
  return num.is_negative() ? -result : result;
}

std::string Rational::to_string() const {
  if (!big_) {
    if (den_ == 1) return std::to_string(num_);
    return std::to_string(num_) + "/" + std::to_string(den_);
  }
  if (is_integer()) return big_->num.to_string();
  return big_->num.to_string() + "/" + big_->den.to_string();
}

}  // namespace aurv::numeric
