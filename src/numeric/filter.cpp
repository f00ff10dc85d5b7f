#include "numeric/filter.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "support/telemetry.hpp"

namespace aurv::numeric {

namespace {

using i128 = __int128;
using u128 = unsigned __int128;

u128 magnitude(i128 value) {
  return value < 0 ? -static_cast<u128>(value) : static_cast<u128>(value);
}

int bit_length_u128(u128 value) {
  const auto high = static_cast<std::uint64_t>(value >> 64);
  if (high != 0) return 128 - std::countl_zero(high);
  return 64 - std::countl_zero(static_cast<std::uint64_t>(value));
}

int trailing_zeros_u128(u128 value) {
  const auto low = static_cast<std::uint64_t>(value);
  if (low != 0) return std::countr_zero(low);
  return 64 + std::countr_zero(static_cast<std::uint64_t>(value >> 64));
}

std::strong_ordering compare_u128(u128 a, u128 b) {
  if (a < b) return std::strong_ordering::less;
  if (a > b) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

bool exact_only_from_env() {
  const char* raw = std::getenv("AURV_EXACT_ONLY");
  return raw != nullptr && *raw != '\0' && std::string_view(raw) != "0";
}

}  // namespace

std::atomic<bool> filter_detail::exact_only_flag{exact_only_from_env()};

// ------------------------------------------------------------- tier stats --

FilterStats& filter_stats() noexcept {
  thread_local FilterStats stats;
  return stats;
}

void flush_filter_stats() {
  static support::telemetry::Counter& fast_hits =
      support::telemetry::registry().counter("filter.fast_hits");
  static support::telemetry::Counter& limb2_hits =
      support::telemetry::registry().counter("filter.limb2_hits");
  static support::telemetry::Counter& exact_escapes =
      support::telemetry::registry().counter("filter.exact_escapes");
  static support::telemetry::Counter& geom_exact_fallbacks =
      support::telemetry::registry().counter("geom.exact_fallbacks");
  FilterStats& stats = filter_stats();
  if (stats.fast_hits != 0) fast_hits.add(stats.fast_hits);
  if (stats.limb2_hits != 0) limb2_hits.add(stats.limb2_hits);
  if (stats.exact_escapes != 0) exact_escapes.add(stats.exact_escapes);
  if (stats.geom_exact_fallbacks != 0) geom_exact_fallbacks.add(stats.geom_exact_fallbacks);
  stats = FilterStats{};
}

void set_filter_exact_only(bool exact_only) noexcept {
  filter_detail::exact_only_flag.store(exact_only, std::memory_order_relaxed);
}

// -------------------------------------------------------------- FInterval --

FInterval FInterval::enclose(const Rational& value) {
  const double nearest = value.to_double();
  if (!std::isfinite(nearest)) {
    // Beyond double range. The conversion's double-rounding can tip to
    // infinity marginally early, so back the finite endpoint off two ulps.
    using filter_detail::next_down;
    using filter_detail::next_up;
    constexpr double kMax = std::numeric_limits<double>::max();
    if (nearest > 0) return {next_down(next_down(kMax)), filter_detail::kInf};
    return {-filter_detail::kInf, next_up(next_up(-kMax))};
  }
  // Rational::to_double() is within 2 ulps of the true value (truncate-
  // then-round double rounding), so two outward nextafters are a sound
  // enclosure. A point is only claimed when the round-trip proves it.
  i128 mantissa = 0;
  std::int64_t shift = 0;
  if (value.dyadic128_view(mantissa, shift)) {
    Dyadic128 dyadic{mantissa, shift};
    dyadic.normalize();
    const Dyadic128 back = Dyadic128::from_double(nearest);
    if (Dyadic128::compare(dyadic, back) == std::strong_ordering::equal) {
      return point(nearest);
    }
  }
  using filter_detail::next_down;
  using filter_detail::next_up;
  return {next_down(next_down(nearest)), next_up(next_up(nearest))};
}

std::optional<SignClass> certified_sign(const FInterval& iv) noexcept {
  if (filter_exact_only()) return std::nullopt;
  if (iv.lo > 0) {
    ++filter_stats().fast_hits;
    return SignClass::kPositive;
  }
  if (iv.hi < 0) {
    ++filter_stats().fast_hits;
    return SignClass::kNegative;
  }
  if (iv.lo == 0 && iv.hi == 0) {
    ++filter_stats().fast_hits;
    return SignClass::kZero;
  }
  return std::nullopt;
}

// -------------------------------------------------------------- Dyadic128 --

Dyadic128 Dyadic128::from_double(double value) {
  if (value == 0.0) return {};
  int exponent = 0;
  const double mant = std::frexp(value, &exponent);  // value = mant * 2^exponent
  const auto scaled = static_cast<std::int64_t>(std::ldexp(mant, 53));
  Dyadic128 result{static_cast<i128>(scaled), static_cast<std::int64_t>(exponent) - 53};
  result.normalize();
  return result;
}

void Dyadic128::normalize() {
  if (mantissa == 0) {
    shift = 0;
    return;
  }
  const int zeros = trailing_zeros_u128(magnitude(mantissa));
  if (zeros > 0) {
    mantissa >>= zeros;  // exact: divisible (C++20 arithmetic shift)
    shift += zeros;
  }
}

std::optional<Dyadic128> Dyadic128::sum(const Dyadic128& a, const Dyadic128& b) {
  if (a.mantissa == 0) return b;
  if (b.mantissa == 0) return a;
  const Dyadic128* low = &a;
  const Dyadic128* high = &b;
  if (low->shift > high->shift) std::swap(low, high);
  const std::int64_t delta = high->shift - low->shift;
  if (delta > 127) return std::nullopt;
  if (bit_length_u128(magnitude(high->mantissa)) + delta > 127) return std::nullopt;
  const i128 aligned = high->mantissa << delta;  // exact: headroom checked above
  i128 total = 0;
  if (__builtin_add_overflow(aligned, low->mantissa, &total)) return std::nullopt;
  Dyadic128 result{total, low->shift};
  result.normalize();
  return result;
}

std::optional<Dyadic128> Dyadic128::difference(const Dyadic128& a, const Dyadic128& b) {
  // Negating a mantissa of exactly -2^127 would overflow; normalized values
  // never carry one (it normalizes to -1), but guard the raw struct anyway.
  if (magnitude(b.mantissa) > (static_cast<u128>(1) << 127) - 1) return std::nullopt;
  return sum(a, Dyadic128{-b.mantissa, b.shift});
}

std::optional<Dyadic128> Dyadic128::product(const Dyadic128& a, const Dyadic128& b) {
  if (a.mantissa == 0 || b.mantissa == 0) return Dyadic128{};
  i128 total = 0;
  if (__builtin_mul_overflow(a.mantissa, b.mantissa, &total)) return std::nullopt;
  if (magnitude(total) > (static_cast<u128>(1) << 127) - 1) return std::nullopt;
  Dyadic128 result{total, a.shift + b.shift};
  result.normalize();
  return result;
}

std::strong_ordering Dyadic128::compare(const Dyadic128& a, const Dyadic128& b) {
  const int sign_a = a.sign();
  const int sign_b = b.sign();
  if (sign_a != sign_b) return sign_a <=> sign_b;
  if (sign_a == 0) return std::strong_ordering::equal;
  // Same nonzero sign: leading-bit positions first, aligned mantissas on a
  // tie (when positions agree the shift gap equals the bit-length gap, so
  // the left shift below cannot overflow 128 bits).
  const u128 mag_a = magnitude(a.mantissa);
  const u128 mag_b = magnitude(b.mantissa);
  const std::int64_t lead_a = bit_length_u128(mag_a) + a.shift;
  const std::int64_t lead_b = bit_length_u128(mag_b) + b.shift;
  std::strong_ordering mag_order = std::strong_ordering::equal;
  if (lead_a != lead_b) {
    mag_order = lead_a <=> lead_b;
  } else if (a.shift >= b.shift) {
    mag_order = compare_u128(mag_a << (a.shift - b.shift), mag_b);
  } else {
    mag_order = compare_u128(mag_a, mag_b << (b.shift - a.shift));
  }
  if (sign_a > 0) return mag_order;
  return 0 <=> mag_order;
}

Rational Dyadic128::to_rational() const { return Rational::from_dyadic128(mantissa, shift); }

double Dyadic128::to_double() const {
  if (mantissa == 0) return 0.0;
  const u128 mag0 = magnitude(mantissa);
  if (mag0 < (static_cast<u128>(1) << 53)) {
    // <= 53 significant bits: every tier of the mirror below performs a
    // single correctly-rounded operation on the true value (the divisions
    // are by powers of two with an exact numerator), and ldexp of the exact
    // mantissa is the same correctly-rounded result — bit-identical, far
    // cheaper. Saturate the exponent before narrowing: ldexp flushes to
    // 0 / inf well inside +/-5000 exactly as the mirror's tiers do.
    const auto exponent = static_cast<int>(std::clamp<std::int64_t>(shift, -5000, 5000));
    const double result = std::ldexp(static_cast<double>(static_cast<std::uint64_t>(mag0)), exponent);
    return mantissa < 0 ? -result : result;
  }
  // Replay Rational::to_double() bit for bit. First put the value in
  // Rational's canonical dyadic form: strip trailing mantissa zeros into
  // the denominator exponent (numerator odd whenever a denominator
  // remains), exactly what Rational::assign_dyadic stores.
  u128 mag = mag0;
  std::int64_t scale = shift;
  if (scale < 0) {
    const int zeros = trailing_zeros_u128(mag);
    const std::int64_t take = std::min<std::int64_t>(zeros, -scale);
    if (take > 0) {
      mag >>= take;
      scale += take;
    }
  }
  const bool negative = mantissa < 0;
  const std::int64_t mant_bits = bit_length_u128(mag);
  if (scale >= 0) {
    // Integer: numerator mag << scale, denominator 1.
    const std::int64_t num_bits = mant_bits + scale;
    if (num_bits <= 62) {
      // Inline tier: static_cast<double>(num_) / static_cast<double>(den_).
      const auto num = static_cast<std::int64_t>(mag << scale);
      return static_cast<double>(negative ? -num : num) / static_cast<double>(std::int64_t{1});
    }
    // Big tier: numerator truncated to its top 62 bits, then ldexp back.
    const std::int64_t drop = num_bits - 62;
    const u128 top = drop >= scale ? (mag >> (drop - scale)) : (mag << (scale - drop));
    const double quotient = static_cast<double>(static_cast<std::uint64_t>(top)) /
                            static_cast<double>(std::uint64_t{1});
    const double result = std::ldexp(quotient, static_cast<int>(drop));
    return negative ? -result : result;
  }
  const std::int64_t den_exp = -scale;  // denominator 2^den_exp, den_exp >= 1
  if (mant_bits <= 62 && den_exp <= 61) {
    // Inline tier.
    const auto num = static_cast<std::int64_t>(mag);
    return static_cast<double>(negative ? -num : num) /
           static_cast<double>(std::int64_t{1} << den_exp);
  }
  // Big tier: both operands aligned down to <= 62 significant bits, the
  // division done there, the binary exponent restored with ldexp.
  const std::int64_t den_bits = den_exp + 1;
  std::int64_t exponent = 0;
  u128 num = mag;
  if (mant_bits > 62) {
    num >>= (mant_bits - 62);
    exponent += mant_bits - 62;
  }
  std::int64_t kept_den_exp = den_exp;
  if (den_bits > 62) {
    kept_den_exp -= den_bits - 62;  // always lands on 61
    exponent -= den_bits - 62;
  }
  const double quotient = static_cast<double>(static_cast<std::uint64_t>(num)) /
                          static_cast<double>(std::uint64_t{1} << kept_den_exp);
  const double result = std::ldexp(quotient, static_cast<int>(exponent));
  return negative ? -result : result;
}

// --------------------------------------------------------------- Filtered --

Filtered::Filtered(double value) {
  if (filter_exact_only()) {
    fast_ = false;
    rat_ = Rational::from_double(value);
    iv_ = FInterval::point(value);
    return;
  }
  dy_ = Dyadic128::from_double(value);
  iv_ = FInterval::point(value);
}

Filtered::Filtered(const Rational& value) {
  if (!filter_exact_only()) {
    i128 mantissa = 0;
    std::int64_t scale = 0;
    if (value.dyadic128_view(mantissa, scale)) {
      dy_ = Dyadic128{mantissa, scale};
      dy_.normalize();
      rebuild_interval_from_dyadic();
      return;
    }
  }
  fast_ = false;
  rat_ = value;
  rebuild_interval_from_rational();
}

Filtered::Filtered(Rational&& value) {
  if (!filter_exact_only()) {
    i128 mantissa = 0;
    std::int64_t scale = 0;
    if (value.dyadic128_view(mantissa, scale)) {
      dy_ = Dyadic128{mantissa, scale};
      dy_.normalize();
      rebuild_interval_from_dyadic();
      return;
    }
  }
  fast_ = false;
  rat_ = std::move(value);
  rebuild_interval_from_rational();
}

Rational Filtered::to_rational() const { return fast_ ? dy_.to_rational() : rat_; }

int Filtered::sign() const {
  if (const auto certified = certified_sign(iv_)) {
    switch (*certified) {
      case SignClass::kNegative: return -1;
      case SignClass::kZero: return 0;
      case SignClass::kPositive: return 1;
    }
  }
  if (!filter_exact_only() && fast_) {
    ++filter_stats().limb2_hits;
    return dy_.sign();
  }
  ++filter_stats().exact_escapes;
  return fast_ ? dy_.sign() : rat_.sign();
}

std::strong_ordering Filtered::exact_compare(const Filtered& lhs, const Filtered& rhs) {
  ++filter_stats().exact_escapes;
  if (lhs.fast_ && rhs.fast_) return Dyadic128::compare(lhs.dy_, rhs.dy_);
  if (lhs.fast_) return lhs.dy_.to_rational() <=> rhs.rat_;
  if (rhs.fast_) return lhs.rat_ <=> rhs.dy_.to_rational();
  return lhs.rat_ <=> rhs.rat_;
}

void Filtered::escape() {
  if (!fast_) return;
  rat_ = dy_.to_rational();
  fast_ = false;
}

void Filtered::accumulate_escaped(const Filtered& rhs, int sign_mult) {
  escape();
  if (rhs.fast_) {
    const Rational other = rhs.dy_.to_rational();
    if (sign_mult > 0) {
      rat_ += other;
    } else {
      rat_ -= other;
    }
  } else if (sign_mult > 0) {
    rat_ += rhs.rat_;
  } else {
    rat_ -= rhs.rat_;
  }
  rebuild_interval_from_rational();
}

void Filtered::multiply_escaped(const Filtered& rhs) {
  escape();
  if (rhs.fast_) {
    rat_ *= rhs.dy_.to_rational();
  } else {
    rat_ *= rhs.rat_;
  }
  rebuild_interval_from_rational();
}

void Filtered::rebuild_interval_from_dyadic() {
  // dy_ is normalized everywhere this runs (ctors and the arithmetic ops
  // normalize first), so the mantissa is odd or zero and bit_length is the
  // exact count of significant bits.
  const u128 mag = magnitude(dy_.mantissa);
  const int bits = bit_length_u128(mag);
  if (bits <= 53 && dy_.shift >= -1021 && dy_.shift <= 970) {
    // Hot case: <= 53 significant bits with the exponent inside the normal
    // range is exactly representable, so the enclosure is a point and no
    // round-trip proof is needed. The shift window is conservative: mag >= 1
    // keeps the value >= 2^-1021 (normal), and < 2^53 keeps it
    // < 2^(shift + 53) <= 2^1023 (no overflow).
    const double exact =
        std::ldexp(static_cast<double>(static_cast<std::uint64_t>(mag)),
                   static_cast<int>(dy_.shift));
    iv_ = FInterval::point(dy_.mantissa < 0 ? -exact : exact);
    return;
  }
  using filter_detail::next_down;
  using filter_detail::next_up;
  const double nearest = dy_.to_double();
  if (!std::isfinite(nearest)) {
    constexpr double kMax = std::numeric_limits<double>::max();
    iv_ = nearest > 0 ? FInterval{next_down(next_down(kMax)), filter_detail::kInf}
                      : FInterval{-filter_detail::kInf, next_up(next_up(-kMax))};
    return;
  }
  if (bits > 53) {
    // An odd mantissa wider than a double's 53-bit significand can never be
    // exactly representable: widen without the round-trip proof.
    iv_ = {next_down(next_down(nearest)), next_up(next_up(nearest))};
    return;
  }
  // <= 53 bits but an extreme exponent (subnormal range): the round-trip
  // decides representability.
  const Dyadic128 back = Dyadic128::from_double(nearest);
  if (Dyadic128::compare(dy_, back) == std::strong_ordering::equal) {
    iv_ = FInterval::point(nearest);
    return;
  }
  iv_ = {next_down(next_down(nearest)), next_up(next_up(nearest))};
}

void Filtered::rebuild_interval_from_rational() {
  // Escaped values are never exactly representable doubles: the value
  // either is non-dyadic or needs > 127 mantissa bits, both of which rule
  // out the 53-bit double mantissa. So the enclosure is always widened.
  const double nearest = rat_.to_double();
  using filter_detail::next_down;
  using filter_detail::next_up;
  if (!std::isfinite(nearest)) {
    constexpr double kMax = std::numeric_limits<double>::max();
    iv_ = nearest > 0 ? FInterval{next_down(next_down(kMax)), filter_detail::kInf}
                      : FInterval{-filter_detail::kInf, next_up(next_up(-kMax))};
    return;
  }
  iv_ = {next_down(next_down(nearest)), next_up(next_up(nearest))};
}

}  // namespace aurv::numeric
