// Filtered numeric kernel: filter-then-certify comparisons for exact time.
//
// The engine's event arithmetic is exact-rational end to end, yet almost
// every comparison it makes (which window ends first? is the contact before
// the horizon?) is decidable in plain double arithmetic with a little care.
// This header provides the three-tier ladder that exploits that without
// ever changing an answer:
//
//   1. FInterval — a double interval with outward-rounded endpoints
//      (Dekker/Knuth error terms pick the rounding direction; no FPU
//      rounding-mode changes). If two intervals do not overlap, the
//      comparison is *certified* and costs a couple of flops.
//   2. Dyadic128 — a fixed-width two-limb dyadic value m * 2^s with an
//      __int128 mantissa. Exact add/multiply/compare as long as mantissas
//      fit 127 bits; overflow is detected and escapes. This tier decides
//      the near-ties the interval cannot.
//   3. Rational — the existing exact tier, the final authority.
//
// Soundness contract: a tier may only answer when its answer provably
// equals the exact one (non-overlapping intervals, non-overflowing exact
// integer arithmetic). Escapes change cost, never results — golden
// artifacts stay bit-identical whichever tier decided each comparison,
// and `AURV_EXACT_ONLY=1` (or set_filter_exact_only) forces every decision
// to the Rational tier to prove it.
//
// Bit-exactness: Filtered::to_double() must equal Rational::to_double()
// of the same value *bitwise*, because artifact bytes are printed from
// those doubles. Dyadic128::to_double() therefore replays Rational's
// rounding sequence instruction for instruction (see filter.cpp) rather
// than computing a correctly-rounded conversion.
//
// Tier traffic is counted per thread (filter_stats, declared with the
// exact-only switch in numeric/filter_stats.hpp) and published to the
// telemetry registry as filter.fast_hits / filter.limb2_hits /
// filter.exact_escapes by flush_filter_stats(), which the engines call at
// their deterministic finish points. See docs/NUMERICS.md for the full
// contract and a worked escalation example.
#pragma once

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <optional>

#include "numeric/filter_stats.hpp"
#include "numeric/rational.hpp"

namespace aurv::numeric {

// ------------------------------------------------------------------------
// Directed-rounding scalar helpers. TwoSum/TwoProd produce the exact
// residual of the rounded operation; its sign tells which endpoint needs
// an outward nextafter. Results are sound for every input, including
// overflow (clamped half-lines) and underflow (widened past the residual's
// blind spot).
namespace filter_detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

inline double next_down(double value) { return std::nextafter(value, -kInf); }
inline double next_up(double value) { return std::nextafter(value, kInf); }

inline double add_down(double a, double b) {
  const double s = a + b;
  if (!std::isfinite(s)) {
    if (std::isinf(a) || std::isinf(b)) return s;
    return s > 0 ? std::numeric_limits<double>::max() : -kInf;
  }
  const double bv = s - a;
  const double err = (a - (s - bv)) + (b - bv);
  return err < 0 ? next_down(s) : s;
}

inline double add_up(double a, double b) {
  const double s = a + b;
  if (!std::isfinite(s)) {
    if (std::isinf(a) || std::isinf(b)) return s;
    return s > 0 ? kInf : -std::numeric_limits<double>::max();
  }
  const double bv = s - a;
  const double err = (a - (s - bv)) + (b - bv);
  return err > 0 ? next_up(s) : s;
}

inline double sub_down(double a, double b) { return add_down(a, -b); }
inline double sub_up(double a, double b) { return add_up(a, -b); }

inline double mul_down(double a, double b) {
  const double p = a * b;
  if (std::isnan(p)) return -kInf;  // 0 * inf: no finite information
  if (!std::isfinite(p)) {
    if (std::isinf(a) || std::isinf(b)) return p;
    return p > 0 ? std::numeric_limits<double>::max() : -kInf;
  }
  const double err = std::fma(a, b, -p);
  if (err < 0) return next_down(p);
  if (err == 0 && p != 0 && std::fabs(p) < std::numeric_limits<double>::min()) {
    return next_down(p);  // subnormal residual underflow: direction unknown
  }
  if (p == 0 && a != 0 && b != 0) return -std::numeric_limits<double>::denorm_min();
  return p;
}

inline double mul_up(double a, double b) {
  const double p = a * b;
  if (std::isnan(p)) return kInf;
  if (!std::isfinite(p)) {
    if (std::isinf(a) || std::isinf(b)) return p;
    return p > 0 ? kInf : -std::numeric_limits<double>::max();
  }
  const double err = std::fma(a, b, -p);
  if (err > 0) return next_up(p);
  if (err == 0 && p != 0 && std::fabs(p) < std::numeric_limits<double>::min()) {
    return next_up(p);
  }
  if (p == 0 && a != 0 && b != 0) return std::numeric_limits<double>::denorm_min();
  return p;
}

}  // namespace filter_detail

// ------------------------------------------------------------------------
// Tier 1: outward-rounded double interval. Invariant: lo <= hi, neither is
// NaN; lo == hi means the interval is an *exact point* (the real value is
// exactly this double) — that is what licenses certified equality.
struct FInterval {
  double lo = 0.0;
  double hi = 0.0;

  static FInterval point(double value) { return {value, value}; }
  static FInterval whole() { return {-filter_detail::kInf, filter_detail::kInf}; }

  /// Sound enclosure of an exact rational value; a point iff the value is
  /// exactly representable (see filter.cpp for the proof obligations).
  static FInterval enclose(const Rational& value);

  [[nodiscard]] bool is_point() const { return lo == hi; }

  friend FInterval operator+(const FInterval& a, const FInterval& b) {
    return {filter_detail::add_down(a.lo, b.lo), filter_detail::add_up(a.hi, b.hi)};
  }
  friend FInterval operator-(const FInterval& a, const FInterval& b) {
    return {filter_detail::sub_down(a.lo, b.hi), filter_detail::sub_up(a.hi, b.lo)};
  }
  friend FInterval operator-(const FInterval& a) { return {-a.hi, -a.lo}; }
  friend FInterval operator*(const FInterval& a, const FInterval& b) {
    using filter_detail::mul_down;
    using filter_detail::mul_up;
    const double lo = std::min(std::min(mul_down(a.lo, b.lo), mul_down(a.lo, b.hi)),
                               std::min(mul_down(a.hi, b.lo), mul_down(a.hi, b.hi)));
    const double hi = std::max(std::max(mul_up(a.lo, b.lo), mul_up(a.lo, b.hi)),
                               std::max(mul_up(a.hi, b.lo), mul_up(a.hi, b.hi)));
    return {lo, hi};
  }

  [[nodiscard]] FInterval abs() const {
    if (lo >= 0) return *this;
    if (hi <= 0) return -*this;
    return {0.0, std::max(-lo, hi)};
  }

  /// Outward widening by an absolute margin — the containment slop for
  /// enclosures of transcendental sub-expressions (hypot/cos/sin) whose
  /// final-ulp direction the directed-rounding helpers cannot see.
  [[nodiscard]] FInterval widened(double margin) const {
    return {filter_detail::sub_down(lo, margin), filter_detail::add_up(hi, margin)};
  }

  friend FInterval min(const FInterval& a, const FInterval& b) {
    return {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
  }
  friend FInterval max(const FInterval& a, const FInterval& b) {
    return {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
  }
  friend FInterval hull(const FInterval& a, const FInterval& b) {
    return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
  }
};

enum class SignClass { kNegative, kZero, kPositive };

/// Interval-tier sign certification: an answer is returned only when it
/// provably equals the exact sign. Inconclusive (overlapping zero without
/// being an exact zero point) and exact-only mode return nullopt; the
/// caller escalates. Counts one fast_hit on success, nothing on a miss —
/// the escalation path owns the miss accounting.
[[nodiscard]] std::optional<SignClass> certified_sign(const FInterval& iv) noexcept;

// ------------------------------------------------------------------------
// Tier 2: fixed-width two-limb dyadic value, mantissa * 2^shift with an
// __int128 mantissa (SNIPPETS.md §2 idiom). All operations either return
// the exact result or report overflow; they never round.
struct Dyadic128 {
  __int128 mantissa = 0;
  std::int64_t shift = 0;  // zero is canonically {0, 0}

  /// Exact decomposition of a finite double (every finite double is some
  /// m * 2^s with |m| < 2^53).
  static Dyadic128 from_double(double value);

  /// Strips trailing zero bits of the mantissa into the shift, restoring
  /// maximal headroom after arithmetic.
  void normalize();

  [[nodiscard]] int sign() const { return mantissa == 0 ? 0 : (mantissa < 0 ? -1 : 1); }

  /// Exact sum/difference/product, or nullopt when the result needs more
  /// than 127 mantissa bits (the escape signal; never a rounded value).
  static std::optional<Dyadic128> sum(const Dyadic128& a, const Dyadic128& b);
  static std::optional<Dyadic128> difference(const Dyadic128& a, const Dyadic128& b);
  static std::optional<Dyadic128> product(const Dyadic128& a, const Dyadic128& b);

  /// Exact value comparison (leading-bit positions first, aligned
  /// mantissas on a tie — the same trick as Rational's dyadic compare).
  static std::strong_ordering compare(const Dyadic128& a, const Dyadic128& b);

  [[nodiscard]] Rational to_rational() const;

  /// Bit-identical to to_rational().to_double(): replays Rational's exact
  /// rounding sequence so artifacts do not depend on which tier held the
  /// value. Differentially enforced by tests/numeric_filter_test.cpp.
  [[nodiscard]] double to_double() const;
};

// ------------------------------------------------------------------------
// The filtered exact value: the engine's time type. Semantically identical
// to Rational — every observable (to_double, to_rational, comparisons,
// sign) equals the exact answer — but carried in the cheapest tier that
// can represent it exactly, with a sound interval enclosure alongside for
// certified comparisons.
class Filtered {
 public:
  Filtered() = default;  // exact zero, dyadic tier
  explicit Filtered(int value) : Filtered(static_cast<double>(value)) {}
  explicit Filtered(const Rational& value);
  explicit Filtered(Rational&& value);

 private:
  explicit Filtered(double value);  // exact; internal (from_double is the API)

 public:
  /// Exact conversion of a finite double.
  static Filtered from_double(double value) { return Filtered(value); }

  /// The exact value as Rational.
  [[nodiscard]] Rational to_rational() const;

  /// Bit-identical to to_rational().to_double() by the Dyadic128 mirror.
  [[nodiscard]] double to_double() const {
    return fast_ ? dy_.to_double() : rat_.to_double();
  }

  [[nodiscard]] const FInterval& interval() const noexcept { return iv_; }
  /// Observability: which tier holds the value (never affects semantics).
  [[nodiscard]] bool in_dyadic_tier() const noexcept { return fast_; }

  /// Exact sign via the ladder (counts one tier stat per call).
  [[nodiscard]] int sign() const;

  Filtered& operator+=(const Filtered& rhs) {
    if (fast_ && rhs.fast_) {
      if (auto result = Dyadic128::sum(dy_, rhs.dy_)) {
        dy_ = *result;
        rebuild_interval_from_dyadic();
        return *this;
      }
    }
    accumulate_escaped(rhs, +1);
    return *this;
  }

  Filtered& operator-=(const Filtered& rhs) {
    if (fast_ && rhs.fast_) {
      if (auto result = Dyadic128::difference(dy_, rhs.dy_)) {
        dy_ = *result;
        rebuild_interval_from_dyadic();
        return *this;
      }
    }
    accumulate_escaped(rhs, -1);
    return *this;
  }

  Filtered& operator*=(const Filtered& rhs) {
    if (fast_ && rhs.fast_) {
      if (auto result = Dyadic128::product(dy_, rhs.dy_)) {
        dy_ = *result;
        rebuild_interval_from_dyadic();
        return *this;
      }
    }
    multiply_escaped(rhs);
    return *this;
  }

  friend Filtered operator+(Filtered lhs, const Filtered& rhs) { return lhs += rhs; }
  friend Filtered operator-(Filtered lhs, const Filtered& rhs) { return lhs -= rhs; }
  friend Filtered operator*(Filtered lhs, const Filtered& rhs) { return lhs *= rhs; }

  /// The certify-or-escalate comparison ladder. Exactly one of
  /// fast_hits / limb2_hits / exact_escapes is incremented per call, and
  /// the returned ordering always equals the exact one.
  friend std::strong_ordering operator<=>(const Filtered& lhs, const Filtered& rhs) {
    if (!filter_exact_only()) {
      FilterStats& stats = filter_stats();
      if (lhs.iv_.hi < rhs.iv_.lo) {
        ++stats.fast_hits;
        return std::strong_ordering::less;
      }
      if (lhs.iv_.lo > rhs.iv_.hi) {
        ++stats.fast_hits;
        return std::strong_ordering::greater;
      }
      if (lhs.iv_.is_point() && rhs.iv_.is_point() && lhs.iv_.lo == rhs.iv_.lo) {
        ++stats.fast_hits;
        return std::strong_ordering::equal;
      }
      if (lhs.fast_ && rhs.fast_) {
        ++stats.limb2_hits;
        return Dyadic128::compare(lhs.dy_, rhs.dy_);
      }
    }
    return exact_compare(lhs, rhs);
  }

  friend bool operator==(const Filtered& lhs, const Filtered& rhs) {
    return (lhs <=> rhs) == std::strong_ordering::equal;
  }

 private:
  static std::strong_ordering exact_compare(const Filtered& lhs, const Filtered& rhs);
  void accumulate_escaped(const Filtered& rhs, int sign_mult);
  void multiply_escaped(const Filtered& rhs);
  /// Escape hatch: materialize the exact Rational and leave the fast tier.
  void escape();
  /// iv_ is always derived from the authoritative value alone (never from
  /// interval-arithmetic history), so enclosures — and hence which tier
  /// decides each comparison — are deterministic functions of the value.
  void rebuild_interval_from_dyadic();
  void rebuild_interval_from_rational();

  FInterval iv_;   // sound enclosure of the value
  Dyadic128 dy_;   // authoritative iff fast_
  Rational rat_;   // authoritative iff !fast_
  bool fast_ = true;
};

}  // namespace aurv::numeric
