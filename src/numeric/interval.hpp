// Outward-rounded double intervals: sound enclosures for bounds.
//
// FInterval carries [lo, hi] with endpoints rounded outward, so the real
// value of every expression built from enclosed operands lies inside the
// result. Directions come from Knuth's TwoSum error term rather than FPU
// rounding-mode changes. The search objective's box bounds
// (search/objective.cpp) are the client: a bound that is too loose costs
// pruning, one that is too tight would be unsound, so every endpoint must
// be on the safe side. Exact decisions never run through
// here — event times are Rational and the contact predicates have their
// own exact fallback (see docs/NUMERICS.md).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "numeric/rational.hpp"

namespace aurv::numeric {

// ------------------------------------------------------------------------
// Directed-rounding scalar helpers. TwoSum produces the exact residual of
// the rounded sum; its sign tells which endpoint needs an outward
// nextafter. Results are sound for every input, including overflow
// (clamped half-lines).
namespace interval_detail {

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

}  // namespace interval_detail

// ------------------------------------------------------------------------
// Outward-rounded double interval. Invariant: lo <= hi, neither is NaN;
// lo == hi means the interval is an *exact point* (the real value is
// exactly this double).
struct FInterval {
  double lo = 0.0;
  double hi = 0.0;

  static FInterval point(double value) { return {value, value}; }

  /// Sound enclosure of an exact rational value; a point iff the value is
  /// exactly representable (see interval.cpp for the proof obligations).
  static FInterval enclose(const Rational& value);

  [[nodiscard]] bool is_point() const { return lo == hi; }

  friend FInterval operator+(const FInterval& a, const FInterval& b) {
    return {interval_detail::add_down(a.lo, b.lo), interval_detail::add_up(a.hi, b.hi)};
  }
  friend FInterval operator-(const FInterval& a, const FInterval& b) {
    return {interval_detail::sub_down(a.lo, b.hi), interval_detail::sub_up(a.hi, b.lo)};
  }
  friend FInterval operator-(const FInterval& a) { return {-a.hi, -a.lo}; }

  [[nodiscard]] FInterval abs() const {
    if (lo >= 0) return *this;
    if (hi <= 0) return -*this;
    return {0.0, std::max(-lo, hi)};
  }

  /// Outward widening by an absolute margin — the containment slop for
  /// enclosures of transcendental sub-expressions (hypot/cos/sin) whose
  /// final-ulp direction the directed-rounding helpers cannot see.
  [[nodiscard]] FInterval widened(double margin) const {
    return {interval_detail::sub_down(lo, margin), interval_detail::add_up(hi, margin)};
  }

  friend FInterval min(const FInterval& a, const FInterval& b) {
    return {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
  }
  friend FInterval hull(const FInterval& a, const FInterval& b) {
    return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
  }
};

}  // namespace aurv::numeric
