// Closest approach of two points in uniform linear motion — the geometric
// kernel of the rendezvous simulator. Between two consecutive instruction
// breakpoints both agents move with constant velocity, so the squared
// inter-agent distance is a quadratic polynomial of time and first contact
// with the visibility disk is a quadratic root: no time-stepping, which is
// what makes the paper's 2^(15 i^2)-long waits simulable.
#pragma once

#include <atomic>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <optional>

#include "geom/vec2.hpp"

namespace aurv::geom {

struct ClosestPoint {
  Vec2 offset;      ///< offset + at * relative_velocity
  double at = 0.0;  ///< window-relative time of the minimum, in [0, duration]
};

/// Where over s in [0, duration] |offset + s * relative_velocity| is
/// smallest. `offset` is (position of P - position of Q) at window start and
/// `relative_velocity` is (velocity of P - velocity of Q). No libm call: the
/// caller takes the norm only when it needs the distance.
[[nodiscard]] ClosestPoint closest_point(Vec2 offset, Vec2 relative_velocity,
                                         double duration) noexcept;

struct ApproachResult {
  double min_distance = 0.0;  ///< minimum distance over the window
  double at = 0.0;            ///< window-relative time of the minimum, in [0, duration]
};

/// closest_point with the distance taken: min_distance is the norm of its
/// offset.
[[nodiscard]] ApproachResult closest_approach(Vec2 offset, Vec2 relative_velocity,
                                              double duration) noexcept;

/// First s in [0, duration] with |offset + s * relative_velocity| <= radius,
/// or nullopt if the distance stays above `radius` throughout the window.
/// Exact at s = 0 (already in contact reports 0). Whether a contact exists
/// is decided exactly over the input doubles; `duration` may be +inf (the
/// whole ray s >= 0).
[[nodiscard]] std::optional<double> first_contact(Vec2 offset, Vec2 relative_velocity,
                                                  double radius, double duration) noexcept;

/// The closed sub-interval of [0, duration] during which
/// |offset + s * relative_velocity| <= radius, or nullopt if the distance
/// stays above radius throughout (decided exactly, like first_contact;
/// `duration` may be +inf). Used by the gathering engine, which needs
/// *simultaneous* visibility intervals of many pairs.
struct ContactInterval {
  double enter = 0.0;
  double exit = 0.0;
};
[[nodiscard]] std::optional<ContactInterval> contact_interval(Vec2 offset,
                                                              Vec2 relative_velocity,
                                                              double radius,
                                                              double duration) noexcept;

namespace detail {
extern std::atomic<bool> exact_only_flag;
}  // namespace detail

/// When true, every contact decision skips the double filter and takes the
/// exact Rational path, and compare_distance decides nothing: the proof
/// mode behind the AURV_EXACT_ONLY=1 environment toggle (read once at
/// startup). Artifacts must be byte-identical either way.
[[nodiscard]] inline bool exact_contacts_only() noexcept {
  return detail::exact_only_flag.load(std::memory_order_relaxed);
}
void set_exact_contacts_only(bool exact_only) noexcept;

/// std::hypot(d.x, d.y) <=> r where squared norms settle it: `less` and
/// `greater` are certain for hypot's double, `unordered` means undecided
/// (the caller takes the hypot). It decides when s = |d|^2 and r^2 both lie
/// in [2^-960, 2^1000], r > 0, and s is outside r^2 (1 +- 2^-40) — a margin
/// about 2^10 times the rounding of s, r^2 and a 1-ulp hypot
/// (docs/NUMERICS.md, "Distance comparisons"). Never `equivalent`.
[[nodiscard]] inline std::partial_ordering compare_distance(Vec2 d, double r) noexcept {
  constexpr double kTiny = 0x1p-960;
  constexpr double kHuge = 0x1p1000;
  constexpr double kMargin = 0x1p-40;
  const double s = d.norm2();
  const double r2 = r * r;
  if (!(s >= kTiny && s <= kHuge && r > 0.0 && r2 >= kTiny && r2 <= kHuge) ||
      exact_contacts_only())
    return std::partial_ordering::unordered;
  if (s > r2 * (1.0 + kMargin)) return std::partial_ordering::greater;
  if (s < r2 * (1.0 - kMargin)) return std::partial_ordering::less;
  return std::partial_ordering::unordered;
}

/// Whether the window is settled by its swept-disc bound: true only when
/// |offset + s * relative_velocity| > floor exactly for every s in
/// [0, duration] (so first_contact with any radius <= floor finds none) and
/// the hypot of closest_point's offset is above floor. It tests
/// (1 - 2^-46) |offset|^2 > (floor + |v| duration)^2 in doubles, which
/// leaves a margin of 2^-48 (|offset| + |v| duration), about four times
/// the rounding of that test, of closest_point's offset and of a 1-ulp
/// hypot (docs/NUMERICS.md, "Window cull"). Guards: |offset|^2 <= 2^1000,
/// floor >= 2^-480, a finite duration >= 0, and |v|^2 either 0 from an
/// exact zero vector or at least 2^-960; outside them, for non-finite
/// inputs and in exact-only mode it answers false.
[[nodiscard]] inline bool stays_beyond(Vec2 offset, Vec2 relative_velocity, double duration,
                                       double floor) noexcept {
  constexpr double kTiny = 0x1p-960;
  constexpr double kHuge = 0x1p1000;
  constexpr double kShrink = 1.0 - 0x1p-46;
  const double a = offset.norm2();
  const double v2 = relative_velocity.norm2();
  if (!(a <= kHuge && floor >= 0x1p-480 && duration >= 0.0 &&
        duration <= std::numeric_limits<double>::max()) ||
      exact_contacts_only())
    return false;
  // A square that underflowed to 0 or a subnormal would hide the speed.
  if (v2 < kTiny && (relative_velocity.x != 0.0 || relative_velocity.y != 0.0)) return false;
  const double clearance = floor + std::sqrt(v2) * duration;
  return a * kShrink > clearance * clearance;
}

/// std::hypot(d.x, d.y) <= r, bit for bit, with the hypot taken only when
/// compare_distance cannot decide.
[[nodiscard]] inline bool within_distance(Vec2 d, double r) noexcept {
  const std::partial_ordering order = compare_distance(d, r);
  return order == std::partial_ordering::unordered ? d.norm() <= r : order < 0;
}

/// Contact decisions this thread has sent to the exact fallback since its
/// last flush_contact_stats().
[[nodiscard]] std::uint64_t exact_fallbacks() noexcept;

/// Adds this thread's fallback count to the telemetry counter
/// geom.exact_fallbacks and zeroes it. Call sites are the engines' finish
/// paths, so the total stays thread-count-invariant like every other
/// telemetry series.
void flush_contact_stats();

namespace detail {

/// The five exactly decided signs behind first_contact and contact_interval,
/// over the quadratic |offset + s v|^2 - r^2 = v2 s^2 + 2 b s + c.
enum class ContactSign {
  kClearance,     ///< c = |offset|^2 - r^2 (<= 0: inside the disk)
  kApproach,      ///< b = offset . v (< 0: approaching)
  kDiscriminant,  ///< b^2 - v2 c (< 0: the line misses the disk)
  kVertexMargin,  ///< v2 w + b (>= 0: the closest approach is within the window)
  kEndClearance,  ///< q(w) = (v2 w + 2 b) w + c (<= 0: inside the disk at s = w)
};

/// Exact sign of one decision, as the predicates take it (semi-static
/// filter, exact Rational fallback). Exposed for the differential tests;
/// the inputs must be finite, and `duration` is the window length w >= 0.
[[nodiscard]] int contact_sign(ContactSign which, Vec2 offset, Vec2 relative_velocity,
                               double radius, double duration) noexcept;

}  // namespace detail

}  // namespace aurv::geom
