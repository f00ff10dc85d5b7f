// Arbitrary-precision signed integer.
//
// Why this exists: Algorithm 1 of the paper (AlmostUniversalRV) executes
// waits lasting 2^(15 i^2) local time units in phase i. Already at phase 2
// that is 2^60 absolute time units, beyond the contiguous integer range of
// IEEE double (2^53), and at phase 6 it is 2^540. Rendezvous, however, is
// decided by sub-unit differences between event times, so simulated time
// must be *exact*. BigInt underlies numeric::Rational, the exact time type.
//
// Representation: sign/magnitude, little-endian 64-bit limbs in a
// std::vector, no leading zero limbs, zero is { sign = 0, limbs empty }.
// Rational keeps values below 2^62 in its inline tier, so BigInt only
// carries the rare huge quantities (specs, horizons, closed-form block
// durations, reported meet times) and needs no small-buffer tricks.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace aurv::numeric {

class BigInt {
 public:
  // NOLINTBEGIN(google-explicit-constructor) — integers convert implicitly
  // by design; BigInt is a drop-in integer type.
  BigInt() = default;
  BigInt(int value) : BigInt(static_cast<long long>(value)) {}
  BigInt(long value) : BigInt(static_cast<long long>(value)) {}
  BigInt(long long value);
  BigInt(unsigned int value) : BigInt(static_cast<unsigned long long>(value)) {}
  BigInt(unsigned long value) : BigInt(static_cast<unsigned long long>(value)) {}
  BigInt(unsigned long long value);
  // NOLINTEND(google-explicit-constructor)

  /// Parses an optionally signed decimal string, e.g. "-123456...".
  /// Throws std::invalid_argument on malformed input.
  static BigInt from_string(std::string_view text);

  /// 2^exponent. The workhorse for the paper's dyadic quantities.
  static BigInt pow2(std::uint64_t exponent);

  [[nodiscard]] bool is_zero() const noexcept { return sign_ == 0; }
  [[nodiscard]] bool is_negative() const noexcept { return sign_ < 0; }
  [[nodiscard]] int sign() const noexcept { return sign_; }

  /// Number of significant bits of |*this| (0 for zero).
  [[nodiscard]] std::uint64_t bit_length() const noexcept;

  /// True iff |*this| is a power of two (zero -> false).
  [[nodiscard]] bool is_pow2() const noexcept;

  /// Number of trailing zero bits of |*this|; undefined for zero (checked).
  [[nodiscard]] std::uint64_t trailing_zero_bits() const;

  [[nodiscard]] BigInt operator-() const;
  [[nodiscard]] BigInt abs() const;
  /// In-place negation (sign flip; zero stays zero). No copy, unlike
  /// unary minus.
  void negate() noexcept { sign_ = -sign_; }

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);
  BigInt& operator<<=(std::uint64_t bits);
  BigInt& operator>>=(std::uint64_t bits);  // arithmetic toward zero on magnitude

  friend BigInt operator+(BigInt lhs, const BigInt& rhs) { return lhs += rhs; }
  friend BigInt operator-(BigInt lhs, const BigInt& rhs) { return lhs -= rhs; }
  friend BigInt operator*(BigInt lhs, const BigInt& rhs) { return lhs *= rhs; }
  friend BigInt operator<<(BigInt lhs, std::uint64_t bits) { return lhs <<= bits; }
  friend BigInt operator>>(BigInt lhs, std::uint64_t bits) { return lhs >>= bits; }

  /// Truncated division (C semantics: quotient rounds toward zero,
  /// remainder has the sign of the dividend). Divisor must be nonzero.
  struct DivModResult;
  [[nodiscard]] static DivModResult divmod(const BigInt& dividend, const BigInt& divisor);
  friend BigInt operator/(const BigInt& lhs, const BigInt& rhs);
  friend BigInt operator%(const BigInt& lhs, const BigInt& rhs);

  friend bool operator==(const BigInt& lhs, const BigInt& rhs) noexcept = default;
  friend std::strong_ordering operator<=>(const BigInt& lhs, const BigInt& rhs) noexcept;

  /// Greatest common divisor of |a| and |b| (gcd(0,0) == 0).
  [[nodiscard]] static BigInt gcd(BigInt a, BigInt b);

  /// Nearest double (round-to-nearest on the top 54 bits; +/-inf on overflow).
  [[nodiscard]] double to_double() const noexcept;

  /// Exact conversion when the value fits in int64; throws std::overflow_error
  /// otherwise.
  [[nodiscard]] std::int64_t to_int64() const;
  [[nodiscard]] bool fits_int64() const noexcept;

  [[nodiscard]] std::string to_string() const;

 private:
  using Limbs = std::vector<std::uint64_t>;

  static int compare_magnitudes(const Limbs& a, const Limbs& b) noexcept;
  static void add_magnitudes(Limbs& acc, const Limbs& rhs);
  // Requires |acc| >= |rhs|.
  static void sub_magnitudes(Limbs& acc, const Limbs& rhs);
  // acc = rhs - acc in place; requires |rhs| >= |acc|.
  static void rsub_magnitudes(Limbs& acc, const Limbs& rhs);
  /// Signed accumulate: *this += sign(rhs_sign) * |rhs|. Shared by += and -=
  /// so subtraction does not copy-negate its operand.
  BigInt& accumulate(const BigInt& rhs, int rhs_sign);
  void trim() noexcept;

  int sign_ = 0;
  Limbs limbs_;
};

struct BigInt::DivModResult {
  BigInt quotient;
  BigInt remainder;
};

}  // namespace aurv::numeric
