#include "geom/closest_approach.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "numeric/rational.hpp"
#include "support/telemetry.hpp"

namespace aurv::geom {

namespace {

using detail::ContactSign;
using numeric::Rational;

// Every *decision* below (inside the disk? approaching? does the quadratic
// touch the window?) is made exactly, by a semi-static filter in the style
// of Shewchuk's robust predicates: each sign is evaluated in plain doubles
// next to an a-priori error bound K * 2^-53 * P, where P is the same
// expression with every term replaced by its magnitude (its "permanent").
// When |value| > bound the double sign is the exact sign. Otherwise — and
// whenever a subnormal product could void the relative error model (a bound
// or a leaf permanent below kTiny) or the bound is inf/NaN — the expression
// is re-evaluated in Rational over the input doubles, which are exact dyadic
// rationals. docs/NUMERICS.md derives each constant K. The returned
// *values* (contact times) are plain double formulas over the same b and c;
// only branch outcomes are exact, which is what the engine's correctness
// depends on.

bool exact_only_from_env() {
  const char* raw = std::getenv("AURV_EXACT_ONLY");
  return raw != nullptr && *raw != '\0' && std::string_view(raw) != "0";
}

// Per-thread on purpose: bumping it costs a register increment, not an
// atomic; flush_contact_stats() moves it into the telemetry registry.
thread_local std::uint64_t exact_fallback_count = 0;

constexpr double kEps = 0x1p-53;   // unit roundoff of binary64
constexpr double kTiny = 0x1p-960;  // underflow floor for bounds and leaves

/// |offset + s v|^2 - r^2 = v2 s^2 + 2 b s + c for one window, held in
/// doubles with the permanents pc = x^2 + y^2 + r^2 and pb = |x u| + |y v|.
class ContactQuadratic {
 public:
  ContactQuadratic(Vec2 offset, Vec2 velocity, double radius) noexcept
      : offset_(offset), velocity_(velocity), radius_(radius),
        exact_only_(exact_contacts_only()) {
    // Same operation order as offset.norm2() and offset.dot(velocity), so b
    // and c are bit-identical to the values the contact-time formulas use.
    const double xy2 = offset.x * offset.x + offset.y * offset.y;
    const double r2 = radius * radius;
    const double bx = offset.x * velocity.x;
    const double by = offset.y * velocity.y;
    c = xy2 - r2;
    pc_ = xy2 + r2;
    b = bx + by;
    pb_ = std::fabs(bx) + std::fabs(by);
    v2 = velocity.norm2();
  }

  double b = 0.0;   // offset . v: negative while approaching
  double c = 0.0;   // |offset|^2 - r^2: <= 0 inside the disk
  double v2 = 0.0;  // |v|^2

  /// Exact sign of one decision; `w` is the finite window length for the
  /// two window decisions and unused otherwise.
  [[nodiscard]] int sign(ContactSign which, double w = 0.0) const {
    double value = 0.0;
    double bound = 0.0;
    bool leaves_normal = true;  // no subnormal leaf error gets amplified
    switch (which) {
      case ContactSign::kClearance:
        value = c;
        bound = 4 * kEps * pc_;
        break;
      case ContactSign::kApproach:
        value = b;
        bound = 3 * kEps * pb_;
        break;
      case ContactSign::kDiscriminant:
        value = b * b - v2 * c;
        bound = 8 * kEps * (pb_ * pb_ + v2 * pc_);
        leaves_normal = v2 >= kTiny && pc_ >= kTiny;
        break;
      case ContactSign::kVertexMargin:
        value = v2 * w + b;
        bound = 5 * kEps * (v2 * w + pb_);
        leaves_normal = v2 >= kTiny;
        break;
      case ContactSign::kEndClearance:
        value = (v2 * w + 2 * b) * w + c;
        bound = 7 * kEps * ((v2 * w + 2 * pb_) * w + pc_);
        leaves_normal = v2 >= kTiny;
        break;
    }
    if (!exact_only_ && leaves_normal && bound >= kTiny && std::fabs(value) > bound)
      return value > 0 ? 1 : -1;
    ++exact_fallback_count;
    return exact_sign(which, w);
  }

  /// Whether the smaller root s1 lies at or before w, given c > 0 or a real
  /// root pair: the vertex -b / v2 is in the window (v2 w + b >= 0) or the
  /// window end is already inside the disk (q(w) <= 0). An infinite window
  /// is the whole ray s >= 0 and always contains the vertex.
  [[nodiscard]] bool reaches_disk_by(double w) const {
    if (std::isinf(w)) return true;
    return sign(ContactSign::kVertexMargin, w) >= 0 || sign(ContactSign::kEndClearance, w) <= 0;
  }

 private:
  [[nodiscard, gnu::cold]] int exact_sign(ContactSign which, double w) const {
    const auto exact = [](double value) { return Rational::from_double(value); };
    const Rational x = exact(offset_.x);
    const Rational y = exact(offset_.y);
    const auto c_exact = [&] { return x * x + y * y - exact(radius_) * exact(radius_); };
    const auto b_exact = [&] { return x * exact(velocity_.x) + y * exact(velocity_.y); };
    const auto v2_exact = [&] {
      return exact(velocity_.x) * exact(velocity_.x) + exact(velocity_.y) * exact(velocity_.y);
    };
    switch (which) {
      case ContactSign::kClearance: return c_exact().sign();
      case ContactSign::kApproach: return b_exact().sign();
      case ContactSign::kDiscriminant: {
        const Rational b_value = b_exact();
        return (b_value * b_value - v2_exact() * c_exact()).sign();
      }
      case ContactSign::kVertexMargin: return (v2_exact() * exact(w) + b_exact()).sign();
      case ContactSign::kEndClearance: {
        const Rational end = exact(w);
        return ((v2_exact() * end + Rational(2) * b_exact()) * end + c_exact()).sign();
      }
    }
    return 0;
  }

  Vec2 offset_;
  Vec2 velocity_;
  double radius_;
  double pc_ = 0.0;
  double pb_ = 0.0;
  bool exact_only_;
};

}  // namespace

std::atomic<bool> detail::exact_only_flag{exact_only_from_env()};

void set_exact_contacts_only(bool exact_only) noexcept {
  detail::exact_only_flag.store(exact_only, std::memory_order_relaxed);
}

std::uint64_t exact_fallbacks() noexcept { return exact_fallback_count; }

void flush_contact_stats() {
  static support::telemetry::Counter& counter =
      support::telemetry::registry().counter("geom.exact_fallbacks");
  if (exact_fallback_count != 0) counter.add(exact_fallback_count);
  exact_fallback_count = 0;
}

ClosestPoint closest_point(Vec2 offset, Vec2 relative_velocity, double duration) noexcept {
  const double v2 = relative_velocity.norm2();
  if (v2 <= 0.0 || duration <= 0.0) return {offset, 0.0};
  // d(s)^2 = |offset|^2 + 2 s offset.v + s^2 |v|^2, minimized at
  // s* = -offset.v / |v|^2, clamped to the window.
  const double s_star = std::clamp(-offset.dot(relative_velocity) / v2, 0.0, duration);
  return {offset + s_star * relative_velocity, s_star};
}

ApproachResult closest_approach(Vec2 offset, Vec2 relative_velocity, double duration) noexcept {
  const ClosestPoint closest = closest_point(offset, relative_velocity, duration);
  return {closest.offset.norm(), closest.at};
}

std::optional<double> first_contact(Vec2 offset, Vec2 relative_velocity, double radius,
                                    double duration) noexcept {
  const ContactQuadratic quad(offset, relative_velocity, radius);
  if (quad.sign(ContactSign::kClearance) <= 0) return 0.0;  // already in contact
  if (quad.v2 <= 0.0 || duration <= 0.0) return std::nullopt;
  // Solve v2 s^2 + 2 b s + c = 0 with c > 0 here.
  if (quad.sign(ContactSign::kApproach) >= 0) return std::nullopt;  // distance only grows
  if (quad.sign(ContactSign::kDiscriminant) < 0) return std::nullopt;  // disk never reached
  if (!quad.reaches_disk_by(duration)) return std::nullopt;
  // Contact certified inside the window; the reported time is the
  // numerically stable double root, clamped to the certificate.
  const double discriminant = quad.b * quad.b - quad.v2 * quad.c;
  const double s1 = quad.c / (-quad.b + std::sqrt(std::max(discriminant, 0.0)));
  if (!(s1 > 0.0)) return 0.0;  // guards tiny negative round-off (and NaN)
  if (s1 > duration) return duration;  // round-off past the certified window
  return s1;
}

std::optional<ContactInterval> contact_interval(Vec2 offset, Vec2 relative_velocity,
                                                double radius, double duration) noexcept {
  const ContactQuadratic quad(offset, relative_velocity, radius);
  const bool inside_now = quad.sign(ContactSign::kClearance) <= 0;
  if (quad.v2 <= 0.0 || duration <= 0.0) {
    if (inside_now) return ContactInterval{0.0, duration};
    return std::nullopt;
  }
  if (quad.sign(ContactSign::kDiscriminant) < 0) {
    if (inside_now) return ContactInterval{0.0, duration};  // exactly impossible: c <= 0 forces D >= 0
    return std::nullopt;
  }
  // Overlap of [enter, exit] with [0, w], decided exactly:
  //   exit < 0  iff  b > 0 and c > 0 (both roots negative);
  //   enter > w iff  the window does not reach the disk.
  if (!inside_now && quad.sign(ContactSign::kApproach) > 0) return std::nullopt;
  if (!quad.reaches_disk_by(duration)) return std::nullopt;
  // Overlap certified; endpoints are the double roots, clamped into the
  // certified window.
  const double discriminant = quad.b * quad.b - quad.v2 * quad.c;
  const double sqrt_d = std::sqrt(std::max(discriminant, 0.0));
  const double enter = (-quad.b - sqrt_d) / quad.v2;
  const double exit = (-quad.b + sqrt_d) / quad.v2;
  double lo = std::clamp(enter, 0.0, duration);
  double hi = std::clamp(exit, 0.0, duration);
  if (lo > hi) lo = hi;  // round-off in a certified-overlap corner
  return ContactInterval{lo, hi};
}

int detail::contact_sign(ContactSign which, Vec2 offset, Vec2 relative_velocity, double radius,
                         double duration) noexcept {
  return ContactQuadratic(offset, relative_velocity, radius).sign(which, duration);
}

}  // namespace aurv::geom
