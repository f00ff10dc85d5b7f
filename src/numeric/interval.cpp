#include "numeric/interval.hpp"

namespace aurv::numeric {

FInterval FInterval::enclose(const Rational& value) {
  using interval_detail::kInf;
  using interval_detail::next_down;
  using interval_detail::next_up;
  const double nearest = value.to_double();
  if (!std::isfinite(nearest)) {
    // Beyond double range. The conversion's double-rounding can tip to
    // infinity marginally early, so back the finite endpoint off two ulps.
    constexpr double kMax = std::numeric_limits<double>::max();
    if (nearest > 0) return {next_down(next_down(kMax)), kInf};
    return {-kInf, next_up(next_up(-kMax))};
  }
  // Rational::to_double() is within 2 ulps of the true value (truncate-
  // then-round double rounding), so two outward nextafters are a sound
  // enclosure. A point is only claimed when the round-trip proves it.
  if (Rational::from_double(nearest) == value) return point(nearest);
  return {next_down(next_down(nearest)), next_up(next_up(nearest))};
}

}  // namespace aurv::numeric
