// Exact rational arithmetic — the library's *time* type.
//
// Every duration in the paper's algorithms is a rational number of local
// time units (in fact a dyadic one, k/2^i), every agent clock rate tau,
// speed v and delay t accepted by the simulator is rational, so every event
// time is rational and event ordering is decided exactly — even when the
// integer part has hundreds of bits (phase-i waits of 2^(15 i^2) units) and
// the fractional part is 2^-i.
//
// Representation: a two-tier value. Values whose numerator and denominator
// fit comfortably in int64 (the overwhelming majority of simulation event
// arithmetic) are stored inline and combined with __int128 intermediates
// (two inline dyadics add by shift-align, without products);
// anything larger promotes transparently to heap-allocated BigInt. The big
// tier additionally carries a *dyadic tag*: when the denominator is a power
// of two (virtually always in simulator arithmetic — the paper's quantities
// are k/2^i) its exponent is cached, and +=, -=, *, <=> reduce to
// shift-align + integer add/compare, skipping BigInt::gcd and the cross
// multiplications entirely. The general-rational path remains as fallback
// with bit-exact identical results. The fast path matters: the simulator
// performs a handful of rational ops per event and is rational-arithmetic
// bound (see bench/micro_kernels).
//
// Invariants: denominator > 0, gcd(|num|, den) == 1, zero is 0/1; the
// inline tier is used whenever |num| and den < 2^62; in the big tier,
// den_exp == e iff den == 2^e, else -1.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>

#include "numeric/bigint.hpp"

namespace aurv::numeric {

class Rational {
 public:
  // NOLINTBEGIN(google-explicit-constructor) — integers convert implicitly
  // by design; Rational is a drop-in number type.
  Rational() = default;
  Rational(int value) : num_(value) {}
  Rational(long value) : Rational(static_cast<long long>(value)) {}
  Rational(long long value);
  Rational(BigInt value);
  // NOLINTEND(google-explicit-constructor)
  /// numerator/denominator; denominator must be nonzero.
  Rational(BigInt numerator, BigInt denominator);

  // Copies, ==, <=> and to_double decide the inline tier here, without a
  // call; big-tier work goes to the out-of-line helpers below.
  Rational(const Rational& other) : num_(other.num_), den_(other.den_) {
    if (other.big_) assign_big(*other.big_);
  }
  Rational(Rational&& other) noexcept = default;
  Rational& operator=(const Rational& other) {
    if (!other.big_) {
      num_ = other.num_;
      den_ = other.den_;
      big_.reset();
    } else if (this != &other) {
      assign_big(*other.big_);
    }
    return *this;
  }
  Rational& operator=(Rational&& other) noexcept = default;
  ~Rational() = default;

  /// k / 2^i — the dyadic quantities the paper's algorithms are built from.
  static Rational dyadic(long long numerator, std::uint64_t pow2_exponent);

  /// 2^i as a rational.
  static Rational pow2(std::uint64_t exponent);

  /// Parses "a/b" or "a" (decimal integers). Throws on malformed input.
  static Rational from_string(std::string_view text);

  /// Exact conversion of a finite double (every finite double is a dyadic
  /// rational m * 2^e). Throws std::invalid_argument for NaN/inf.
  static Rational from_double(double value);

  /// Numerator/denominator as BigInt (by value: the inline tier stores
  /// machine integers, not BigInts).
  [[nodiscard]] BigInt numerator() const;
  [[nodiscard]] BigInt denominator() const;

  [[nodiscard]] bool is_zero() const noexcept { return big_ ? big_->num.is_zero() : num_ == 0; }
  [[nodiscard]] bool is_negative() const noexcept {
    return big_ ? big_->num.is_negative() : num_ < 0;
  }
  [[nodiscard]] bool is_integer() const noexcept {
    return big_ ? big_->den_exp == 0 : den_ == 1;
  }
  [[nodiscard]] int sign() const noexcept {
    if (big_) return big_->num.sign();
    return num_ == 0 ? 0 : (num_ < 0 ? -1 : 1);
  }

  /// True when stored in the inline int64 tier (observability for tests
  /// and benchmarks; semantics never depend on the tier).
  [[nodiscard]] bool is_inline() const noexcept { return big_ == nullptr; }

  /// True when the denominator is a power of two (k / 2^e), i.e. the value
  /// is eligible for the shift-align fast paths. Observability, like
  /// is_inline(): semantics never depend on it.
  [[nodiscard]] bool is_dyadic() const noexcept {
    return big_ ? big_->den_exp >= 0 : (den_ & (den_ - 1)) == 0;
  }

  [[nodiscard]] Rational operator-() const;
  [[nodiscard]] Rational abs() const;
  /// Multiplicative inverse; *this must be nonzero.
  [[nodiscard]] Rational reciprocal() const;

  Rational& operator+=(const Rational& rhs);
  Rational& operator-=(const Rational& rhs);
  Rational& operator*=(const Rational& rhs);
  Rational& operator/=(const Rational& rhs);

  friend Rational operator+(Rational lhs, const Rational& rhs) { return lhs += rhs; }
  friend Rational operator-(Rational lhs, const Rational& rhs) { return lhs -= rhs; }
  friend Rational operator*(Rational lhs, const Rational& rhs) { return lhs *= rhs; }
  friend Rational operator/(Rational lhs, const Rational& rhs) { return lhs /= rhs; }

  friend bool operator==(const Rational& lhs, const Rational& rhs) noexcept {
    // Canonical forms are unique and any value that fits the inline tier is
    // stored inline, so cross-tier values are never equal.
    if (!lhs.big_ && !rhs.big_) return lhs.num_ == rhs.num_ && lhs.den_ == rhs.den_;
    return lhs.big_ && rhs.big_ && big_equal(*lhs.big_, *rhs.big_);
  }
  friend std::strong_ordering operator<=>(const Rational& lhs, const Rational& rhs) noexcept {
    if (lhs.big_ || rhs.big_) return big_compare(lhs, rhs);
    // |num|, den < 2^62: both cross products fit in __int128.
    return static_cast<__int128>(lhs.num_) * rhs.den_ <=>
           static_cast<__int128>(rhs.num_) * lhs.den_;
  }

  /// Largest integer <= *this.
  [[nodiscard]] BigInt floor() const;
  /// Smallest integer >= *this.
  [[nodiscard]] BigInt ceil() const;

  /// Nearest double. Exact-ish even for huge numerator/denominator: the
  /// quotient is computed from aligned high bits, not via double division
  /// of the (possibly overflowing) parts.
  [[nodiscard]] double to_double() const noexcept {
    return big_ ? big_to_double() : static_cast<double>(num_) / static_cast<double>(den_);
  }

  [[nodiscard]] std::string to_string() const;

  friend Rational min(const Rational& a, const Rational& b) { return a <= b ? a : b; }
  friend Rational max(const Rational& a, const Rational& b) { return a >= b ? a : b; }

 private:
  struct Big {
    BigInt num;
    BigInt den;            // > 0, coprime with num
    std::int64_t den_exp;  // e iff den == 2^e (the dyadic tag), else -1
  };

  /// Fast-path eligibility bound: products of two such values fit in
  /// __int128 with headroom for the a*d + c*b addition in operator+=.
  static constexpr std::int64_t kInlineMax = (std::int64_t{1} << 62) - 1;

  explicit Rational(std::unique_ptr<Big> big) : big_(std::move(big)) {}
  static Rational from_i128(__int128 numerator, __int128 denominator);
  static Rational from_bigints(BigInt numerator, BigInt denominator);
  /// *this = a big-tier value, reusing this value's Big (and its limb
  /// buffers) when it has one.
  void assign_big(const Big& big);
  static bool big_equal(const Big& lhs, const Big& rhs) noexcept;
  static std::strong_ordering big_compare(const Rational& lhs, const Rational& rhs) noexcept;
  [[nodiscard]] double big_to_double() const noexcept;
  /// Shared core of += / -=: *this += sign_mult * rhs.
  void add_impl(const Rational& rhs, int sign_mult);
  /// *this = numerator / 2^den_exp, normalized; reuses the existing Big
  /// allocation (including the denominator when the exponent is unchanged).
  void assign_dyadic(BigInt numerator, std::uint64_t den_exp);
  /// Big-tier operand access without materializing copies: returns a
  /// reference to the stored BigInt, or fills `store` for inline values
  /// (cheap: the SBO keeps one-limb BigInts off the heap).
  [[nodiscard]] const BigInt& num_ref(BigInt& store) const;
  [[nodiscard]] const BigInt& den_ref(BigInt& store) const;
  /// den_exp of either tier: e iff den == 2^e, else -1.
  [[nodiscard]] std::int64_t dyadic_exponent() const noexcept;
  /// Demote a big value back to the inline tier when it fits.
  void try_demote();

  // Inline tier (valid when big_ == nullptr): num_/den_, den_ > 0, coprime.
  std::int64_t num_ = 0;
  std::int64_t den_ = 1;
  std::unique_ptr<Big> big_;
};

}  // namespace aurv::numeric
