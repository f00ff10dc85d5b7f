// Tests for the geometry kernel: vectors, angles, lines, similarity
// transforms, the canonical line of Definition 2.1, and the closest-approach
// solver the simulator is built on, including a differential fuzz of its
// semi-static contact predicates against exact Rational arithmetic.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "geom/angle.hpp"
#include "geom/canonical_line.hpp"
#include "geom/closest_approach.hpp"
#include "geom/line.hpp"
#include "geom/similarity.hpp"
#include "geom/vec2.hpp"
#include "numeric/rational.hpp"

namespace aurv::geom {
namespace {

constexpr double kTol = 1e-12;

TEST(Vec2, BasicAlgebra) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{-3.0, 4.0};
  EXPECT_EQ(a + b, (Vec2{-2.0, 6.0}));
  EXPECT_EQ(a - b, (Vec2{4.0, -2.0}));
  EXPECT_EQ(2.0 * a, (Vec2{2.0, 4.0}));
  EXPECT_DOUBLE_EQ(a.dot(b), 5.0);
  EXPECT_DOUBLE_EQ(a.cross(b), 10.0);
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}).norm(), 5.0);
  EXPECT_EQ(a.perp(), (Vec2{-2.0, 1.0}));
  EXPECT_NEAR((Vec2{3.0, 4.0}).normalized().norm(), 1.0, kTol);
  EXPECT_EQ((Vec2{0.0, 0.0}).normalized(), (Vec2{0.0, 0.0}));
}

TEST(Angle, NormalizeRanges) {
  EXPECT_NEAR(normalize_angle(0.0), 0.0, kTol);
  EXPECT_NEAR(normalize_angle(kTwoPi), 0.0, kTol);
  EXPECT_NEAR(normalize_angle(-kPi / 2), 3 * kPi / 2, kTol);
  EXPECT_NEAR(normalize_angle(5 * kPi), kPi, kTol);
  EXPECT_NEAR(normalize_angle_signed(3 * kPi / 2), -kPi / 2, kTol);
  EXPECT_NEAR(normalize_angle_signed(kPi), kPi, kTol);
  for (double a = -20.0; a < 20.0; a += 0.377) {
    const double n = normalize_angle(a);
    EXPECT_GE(n, 0.0);
    EXPECT_LT(n, kTwoPi);
    EXPECT_NEAR(std::cos(n), std::cos(a), 1e-9);
    EXPECT_NEAR(std::sin(n), std::sin(a), 1e-9);
  }
}

TEST(Angle, DyadicAngleExactIntegers) {
  EXPECT_DOUBLE_EQ(dyadic_angle(1, 0), kPi);
  EXPECT_DOUBLE_EQ(dyadic_angle(1, 1), kPi / 2);
  EXPECT_DOUBLE_EQ(dyadic_angle(3, 2), 3 * kPi / 4);
  EXPECT_DOUBLE_EQ(dyadic_angle(-1, 1), -kPi / 2);
  // Direct construction, no drift: k pi/2^i summed 2^i times equals k pi.
  const double step = dyadic_angle(1, 10);
  EXPECT_NEAR(step * 1024, kPi, 1e-12);
}

TEST(Angle, LineAndRayAngles) {
  EXPECT_NEAR(line_angle_between(0.0, kPi), 0.0, kTol);       // same line
  EXPECT_NEAR(line_angle_between(0.0, kPi / 2), kPi / 2, kTol);
  EXPECT_NEAR(line_angle_between(0.1, kPi + 0.1), 0.0, kTol);
  EXPECT_NEAR(ray_angle_between(0.0, kPi), kPi, kTol);        // opposite rays
  EXPECT_NEAR(ray_angle_between(0.1, kTwoPi + 0.1), 0.0, kTol);
  EXPECT_NEAR(ray_angle_between(-0.3, 0.3), 0.6, kTol);
}

TEST(Line, ProjectionAndDistance) {
  const Line x_axis(Vec2{0.0, 0.0}, Vec2{1.0, 0.0});
  EXPECT_EQ(x_axis.project(Vec2{3.0, 4.0}), (Vec2{3.0, 0.0}));
  EXPECT_DOUBLE_EQ(x_axis.distance_to(Vec2{3.0, 4.0}), 4.0);
  EXPECT_DOUBLE_EQ(x_axis.signed_distance_to(Vec2{3.0, 4.0}), 4.0);
  EXPECT_DOUBLE_EQ(x_axis.signed_distance_to(Vec2{3.0, -4.0}), -4.0);
  EXPECT_DOUBLE_EQ(x_axis.coordinate(Vec2{7.0, 1.0}), 7.0);
  EXPECT_EQ(x_axis.reflect(Vec2{2.0, 5.0}), (Vec2{2.0, -5.0}));
  EXPECT_THROW(Line(Vec2{}, Vec2{}), std::logic_error);

  const Line diag = Line::through_at_angle(Vec2{1.0, 1.0}, kPi / 4);
  EXPECT_NEAR(diag.inclination(), kPi / 4, kTol);
  EXPECT_NEAR(diag.distance_to(Vec2{2.0, 2.0}), 0.0, kTol);
  const Vec2 p = diag.project(Vec2{2.0, 0.0});
  EXPECT_NEAR(p.x, 1.0, kTol);
  EXPECT_NEAR(p.y, 1.0, kTol);
}

TEST(Line, ProjectionIsIdempotentAndOrthogonal) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> coord(-10.0, 10.0);
  std::uniform_real_distribution<double> angle(0.0, kTwoPi);
  for (int k = 0; k < 100; ++k) {
    const Line line = Line::through_at_angle(Vec2{coord(rng), coord(rng)}, angle(rng));
    const Vec2 p{coord(rng), coord(rng)};
    const Vec2 foot = line.project(p);
    EXPECT_NEAR(dist(line.project(foot), foot), 0.0, 1e-9);
    EXPECT_NEAR((p - foot).dot(line.direction()), 0.0, 1e-9);
    EXPECT_NEAR((p - foot).norm(), line.distance_to(p), 1e-9);
  }
}

TEST(Similarity, IdentityAndBasicMaps) {
  const Similarity id;
  EXPECT_EQ(id.apply(Vec2{3.0, 4.0}), (Vec2{3.0, 4.0}));
  EXPECT_DOUBLE_EQ(id.apply_heading(1.0), 1.0);

  // Pure rotation by pi/2.
  const Similarity rot({}, kPi / 2, 1, 1.0);
  const Vec2 image = rot.apply(Vec2{1.0, 0.0});
  EXPECT_NEAR(image.x, 0.0, kTol);
  EXPECT_NEAR(image.y, 1.0, kTol);

  // Mirror (chi = -1, phi = 0) flips y and heading sign.
  const Similarity mirror({}, 0.0, -1, 1.0);
  EXPECT_NEAR(mirror.apply(Vec2{1.0, 2.0}).y, -2.0, kTol);
  EXPECT_NEAR(normalize_angle_signed(mirror.apply_heading(0.7)), -0.7, kTol);

  EXPECT_THROW(Similarity({}, 0.0, 2, 1.0), std::logic_error);
  EXPECT_THROW(Similarity({}, 0.0, 1, 0.0), std::logic_error);
}

TEST(Similarity, HeadingMatchesLinearMap) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> angle(0.0, kTwoPi);
  std::uniform_real_distribution<double> scale(0.1, 5.0);
  for (int k = 0; k < 200; ++k) {
    const int chi = (k % 2 == 0) ? 1 : -1;
    const Similarity sim({}, angle(rng), chi, scale(rng));
    const double beta = angle(rng);
    const Vec2 mapped = sim.apply_linear(unit_vector(beta));
    const double expected = sim.apply_heading(beta);
    EXPECT_NEAR(ray_angle_between(std::atan2(mapped.y, mapped.x), expected), 0.0, 1e-9);
    EXPECT_NEAR(mapped.norm(), sim.scale(), 1e-9);
  }
}

TEST(Similarity, InverseComposesToIdentity) {
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> coord(-5.0, 5.0);
  std::uniform_real_distribution<double> angle(0.0, kTwoPi);
  std::uniform_real_distribution<double> scale(0.2, 4.0);
  for (int k = 0; k < 200; ++k) {
    const int chi = (k % 2 == 0) ? 1 : -1;
    const Similarity sim({coord(rng), coord(rng)}, angle(rng), chi, scale(rng));
    const Similarity inv = sim.inverse();
    const Vec2 p{coord(rng), coord(rng)};
    EXPECT_NEAR(dist(inv.apply(sim.apply(p)), p), 0.0, 1e-9);
    EXPECT_NEAR(dist(sim.apply(inv.apply(p)), p), 0.0, 1e-9);
    // compose() agrees with function composition.
    const Similarity sim2({coord(rng), coord(rng)}, angle(rng), -chi, scale(rng));
    const Vec2 q{coord(rng), coord(rng)};
    EXPECT_NEAR(dist(sim.compose(sim2).apply(q), sim.apply(sim2.apply(q))), 0.0, 1e-9);
  }
}

TEST(Similarity, FixedPointTheory) {
  // The CGKK substitution's invertibility claim (docs/ARCHITECTURE.md,
  // "Substituted components"): I - M singular exactly when scale = 1 and
  // (chi=-1 or phi=0).
  const Similarity sync_shift({1.0, 2.0}, 0.0, 1, 1.0);
  EXPECT_FALSE(sync_shift.fixed_point().has_value());
  const Similarity mirror_any_phi({1.0, 2.0}, 1.234, -1, 1.0);
  EXPECT_FALSE(mirror_any_phi.fixed_point().has_value());

  const Similarity rotated({1.0, 2.0}, 0.8, 1, 1.0);
  const Similarity scaled({1.0, 2.0}, 0.0, 1, 2.0);
  const Similarity scaled_mirror({1.0, 2.0}, 0.8, -1, 2.0);
  for (const Similarity& sim : {rotated, scaled, scaled_mirror}) {
    const auto fp = sim.fixed_point();
    ASSERT_TRUE(fp.has_value());
    EXPECT_NEAR(dist(sim.apply(*fp), *fp), 0.0, 1e-9);
  }
}

TEST(CanonicalLine, Definition21Properties) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> coord(-10.0, 10.0);
  std::uniform_real_distribution<double> angle(0.0, kTwoPi);
  for (int k = 0; k < 200; ++k) {
    const Vec2 b{coord(rng), coord(rng)};
    const double phi = (k % 5 == 0) ? 0.0 : angle(rng);
    const Line line = canonical_line(b, phi);
    // Equidistant from both origins (Definition 2.1).
    EXPECT_NEAR(line.distance_to(Vec2{0.0, 0.0}), line.distance_to(b), 1e-9);
    // Parallel to the bisectrix: inclination phi/2 (phi = 0: x-axis).
    EXPECT_NEAR(line_angle_between(line.inclination(), normalize_angle(phi) / 2.0), 0.0, 1e-9);
    // Projection distance consistency.
    const double dp = projection_distance(b, phi);
    EXPECT_NEAR(dp, dist(line.project(Vec2{0.0, 0.0}), line.project(b)), 1e-9);
    EXPECT_LE(dp, b.norm() + 1e-9);
  }
}

TEST(CanonicalLine, SameEquationInBothFramesForChiMinus1) {
  // Lemma 3.9 relies on the canonical line having the same equation in both
  // agents' systems when chi = -1 (synchronous): computing "the line through
  // (x/2, y/2) at inclination phi/2" in B's private coordinates and mapping
  // through B's pose must give the same absolute line.
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> coord(-5.0, 5.0);
  std::uniform_real_distribution<double> angle(0.0, kTwoPi);
  for (int k = 0; k < 200; ++k) {
    const Vec2 b{coord(rng), coord(rng)};
    const double phi = angle(rng);
    const Similarity pose(b, phi, -1, 1.0);  // B's frame, synchronous chi=-1
    const Line absolute = canonical_line(b, phi);
    // B evaluates the same tuple formula in its local coordinates:
    const Line local = canonical_line(b, phi);
    const Vec2 p0 = pose.apply(local.point());
    const Vec2 p1 = pose.apply(local.point() + local.direction());
    EXPECT_NEAR(absolute.distance_to(p0), 0.0, 1e-9) << "b=(" << b.x << "," << b.y << ")";
    EXPECT_NEAR(absolute.distance_to(p1), 0.0, 1e-9);
  }
}

TEST(ClosestApproach, StaticAndHeadOn) {
  // Static points.
  const auto still = closest_approach(Vec2{3.0, 4.0}, Vec2{}, 10.0);
  EXPECT_DOUBLE_EQ(still.min_distance, 5.0);
  // Head-on collision: offset (2,0), relative velocity (-1,0).
  const auto collide = closest_approach(Vec2{2.0, 0.0}, Vec2{-1.0, 0.0}, 10.0);
  EXPECT_NEAR(collide.min_distance, 0.0, kTol);
  EXPECT_NEAR(collide.at, 2.0, kTol);
  // Window too short to reach the minimum.
  const auto clipped = closest_approach(Vec2{2.0, 0.0}, Vec2{-1.0, 0.0}, 1.0);
  EXPECT_NEAR(clipped.min_distance, 1.0, kTol);
  EXPECT_NEAR(clipped.at, 1.0, kTol);
}

TEST(ClosestApproach, FirstContactRoots) {
  // Approach from distance 3 at unit speed toward radius 1: contact at s=2.
  const auto hit = first_contact(Vec2{3.0, 0.0}, Vec2{-1.0, 0.0}, 1.0, 10.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(*hit, 2.0, 1e-9);
  // Already inside the radius: contact at 0.
  EXPECT_EQ(first_contact(Vec2{0.5, 0.0}, Vec2{1.0, 0.0}, 1.0, 10.0), 0.0);
  // Moving away: no contact.
  EXPECT_FALSE(first_contact(Vec2{3.0, 0.0}, Vec2{1.0, 0.0}, 1.0, 10.0).has_value());
  // Passing by at miss distance 2 > 1: no contact.
  EXPECT_FALSE(first_contact(Vec2{3.0, 2.0}, Vec2{-1.0, 0.0}, 1.0, 10.0).has_value());
  // Grazing tangentially at exactly the radius.
  const auto graze = first_contact(Vec2{3.0, 1.0}, Vec2{-1.0, 0.0}, 1.0, 10.0);
  ASSERT_TRUE(graze.has_value());
  EXPECT_NEAR(*graze, 3.0, 1e-6);
  // Window ends before contact.
  EXPECT_FALSE(first_contact(Vec2{3.0, 0.0}, Vec2{-1.0, 0.0}, 1.0, 1.5).has_value());
}

class ClosestApproachProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ClosestApproachProperty, MatchesDenseSampling) {
  std::mt19937_64 rng(GetParam() * 101 + 3);
  std::uniform_real_distribution<double> coord(-8.0, 8.0);
  std::uniform_real_distribution<double> vel(-3.0, 3.0);
  std::uniform_real_distribution<double> dur(0.1, 12.0);
  for (int k = 0; k < 200; ++k) {
    const Vec2 offset{coord(rng), coord(rng)};
    const Vec2 velocity{vel(rng), vel(rng)};
    const double duration = dur(rng);
    const auto result = closest_approach(offset, velocity, duration);
    double sampled = 1e300;
    for (int s = 0; s <= 2000; ++s) {
      const double time = duration * s / 2000.0;
      sampled = std::min(sampled, (offset + time * velocity).norm());
    }
    EXPECT_LE(result.min_distance, sampled + 1e-9);
    EXPECT_GE(result.min_distance, sampled - 1e-3);  // sampling resolution
    // The reported argmin achieves the reported minimum.
    EXPECT_NEAR((offset + result.at * velocity).norm(), result.min_distance, 1e-9);

    // first_contact consistency: contact exists iff min <= radius; the
    // distance at the reported first-contact time equals the radius (or we
    // started inside).
    const double radius = 0.5 + (k % 7) * 0.5;
    const auto contact = first_contact(offset, velocity, radius, duration);
    if (result.min_distance <= radius - 1e-9) {
      ASSERT_TRUE(contact.has_value());
      const double d0 = offset.norm();
      if (d0 > radius) {
        EXPECT_NEAR((offset + *contact * velocity).norm(), radius, 1e-6);
        // No earlier contact: distance strictly above radius before it.
        for (int s = 1; s < 50; ++s) {
          const double time = *contact * s / 50.0;
          EXPECT_GT((offset + time * velocity).norm(), radius - 1e-6);
        }
      } else {
        EXPECT_EQ(*contact, 0.0);
      }
    } else if (result.min_distance > radius + 1e-9) {
      EXPECT_FALSE(contact.has_value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosestApproachProperty, ::testing::Values(1u, 2u, 3u, 4u));


TEST(ClosestApproach, ContactIntervalKnownCases) {
  // Head-on pass through a radius-1 disk from distance 3: inside during
  // s in [2, 4].
  const auto pass = contact_interval(Vec2{3.0, 0.0}, Vec2{-1.0, 0.0}, 1.0, 10.0);
  ASSERT_TRUE(pass.has_value());
  EXPECT_NEAR(pass->enter, 2.0, 1e-9);
  EXPECT_NEAR(pass->exit, 4.0, 1e-9);
  // Starting inside and leaving.
  const auto leaving = contact_interval(Vec2{0.5, 0.0}, Vec2{1.0, 0.0}, 1.0, 10.0);
  ASSERT_TRUE(leaving.has_value());
  EXPECT_NEAR(leaving->enter, 0.0, 1e-9);
  EXPECT_NEAR(leaving->exit, 0.5, 1e-9);
  // Static inside: whole window. Static outside: none.
  const auto inside = contact_interval(Vec2{0.5, 0.0}, Vec2{}, 1.0, 7.0);
  ASSERT_TRUE(inside.has_value());
  EXPECT_EQ(inside->enter, 0.0);
  EXPECT_EQ(inside->exit, 7.0);
  EXPECT_FALSE(contact_interval(Vec2{3.0, 0.0}, Vec2{}, 1.0, 7.0).has_value());
  // Miss (closest approach 2 > 1).
  EXPECT_FALSE(contact_interval(Vec2{3.0, 2.0}, Vec2{-1.0, 0.0}, 1.0, 10.0).has_value());
  // Window ends before entry.
  EXPECT_FALSE(contact_interval(Vec2{3.0, 0.0}, Vec2{-1.0, 0.0}, 1.0, 1.5).has_value());
  // Window clips the exit.
  const auto clipped = contact_interval(Vec2{3.0, 0.0}, Vec2{-1.0, 0.0}, 1.0, 3.0);
  ASSERT_TRUE(clipped.has_value());
  EXPECT_NEAR(clipped->exit, 3.0, 1e-9);
}

TEST(ClosestApproach, ContactIntervalConsistentWithFirstContact) {
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> coord(-6.0, 6.0);
  std::uniform_real_distribution<double> vel(-2.0, 2.0);
  for (int k = 0; k < 300; ++k) {
    const Vec2 offset{coord(rng), coord(rng)};
    const Vec2 velocity{vel(rng), vel(rng)};
    const double radius = 0.5 + (k % 5) * 0.4;
    const double duration = 0.5 + (k % 7);
    const auto interval = contact_interval(offset, velocity, radius, duration);
    const auto first = first_contact(offset, velocity, radius, duration);
    if (first.has_value()) {
      ASSERT_TRUE(interval.has_value());
      EXPECT_NEAR(interval->enter, *first, 1e-6);
      EXPECT_LE(interval->enter, interval->exit);
      // Midpoint of the interval is inside the disk.
      const double mid = (interval->enter + interval->exit) / 2.0;
      EXPECT_LE((offset + mid * velocity).norm(), radius + 1e-6);
    } else if (interval.has_value()) {
      // first_contact misses only when the approach is receding from an
      // outside start; then contact_interval must also be empty.
      EXPECT_LE(offset.norm(), radius + 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// Semi-static contact predicates: every sign the filter returns must equal
// the sign of the same expression in exact Rational arithmetic over the
// input doubles, and both predicates must return the same bits whether the
// double tier is live or forced aside (AURV_EXACT_ONLY).

using detail::ContactSign;
using numeric::Rational;

/// RAII toggle for the global exact-only mode; restores the previous mode
/// (the suite also runs with AURV_EXACT_ONLY=1, where the ambient mode is on).
class ExactOnlyGuard {
 public:
  explicit ExactOnlyGuard(bool exact_only) : previous_(exact_contacts_only()) {
    set_exact_contacts_only(exact_only);
  }
  ~ExactOnlyGuard() { set_exact_contacts_only(previous_); }

 private:
  bool previous_;
};

struct ContactCase {
  Vec2 offset;
  Vec2 velocity;
  double radius = 1.0;
  double duration = 1.0;
};

std::string describe(const ContactCase& k) {
  std::ostringstream out;
  out.precision(17);
  out << "offset=(" << k.offset.x << ", " << k.offset.y << ") v=(" << k.velocity.x << ", "
      << k.velocity.y << ") r=" << k.radius << " w=" << k.duration;
  return out.str();
}

constexpr ContactSign kAllSigns[] = {ContactSign::kClearance, ContactSign::kApproach,
                                     ContactSign::kDiscriminant, ContactSign::kVertexMargin,
                                     ContactSign::kEndClearance};

/// The reference: each decision evaluated directly in Rational.
int reference_sign(ContactSign which, const ContactCase& k) {
  const Rational x = Rational::from_double(k.offset.x);
  const Rational y = Rational::from_double(k.offset.y);
  const Rational u = Rational::from_double(k.velocity.x);
  const Rational v = Rational::from_double(k.velocity.y);
  const Rational r = Rational::from_double(k.radius);
  const Rational w = Rational::from_double(k.duration);
  const Rational c = x * x + y * y - r * r;
  const Rational b = x * u + y * v;
  const Rational v2 = u * u + v * v;
  switch (which) {
    case ContactSign::kClearance: return c.sign();
    case ContactSign::kApproach: return b.sign();
    case ContactSign::kDiscriminant: return (b * b - v2 * c).sign();
    case ContactSign::kVertexMargin: return (v2 * w + b).sign();
    case ContactSign::kEndClearance: return (v2 * w * w + Rational(2) * b * w + c).sign();
  }
  return 2;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

int filtered_sign(ContactSign which, const ContactCase& k) {
  return detail::contact_sign(which, k.offset, k.velocity, k.radius, k.duration);
}

/// All five signs against the reference, then both predicates against
/// their exact-only twins.
void expect_exact(const ContactCase& k) {
  for (const ContactSign which : kAllSigns) {
    EXPECT_EQ(filtered_sign(which, k), reference_sign(which, k))
        << describe(k) << " decision " << static_cast<int>(which);
  }
  const auto first = first_contact(k.offset, k.velocity, k.radius, k.duration);
  const auto interval = contact_interval(k.offset, k.velocity, k.radius, k.duration);
  const ExactOnlyGuard guard(true);
  const auto first_exact = first_contact(k.offset, k.velocity, k.radius, k.duration);
  const auto interval_exact = contact_interval(k.offset, k.velocity, k.radius, k.duration);
  ASSERT_EQ(first.has_value(), first_exact.has_value()) << describe(k);
  if (first) {
    EXPECT_TRUE(same_bits(*first, *first_exact)) << describe(k);
  }
  ASSERT_EQ(interval.has_value(), interval_exact.has_value()) << describe(k);
  if (interval) {
    EXPECT_TRUE(same_bits(interval->enter, interval_exact->enter)) << describe(k);
    EXPECT_TRUE(same_bits(interval->exit, interval_exact->exit)) << describe(k);
  }
}

/// Offsets and radius scaled by 2^k, velocity by 2^j, window by 2^(k-j):
/// every decision value scales by a power of two, so a constructed zero
/// stays a zero unless a scaled input leaves the double range.
ContactCase scaled(ContactCase k, int offset_exp, int velocity_exp) {
  k.offset = std::ldexp(1.0, offset_exp) * k.offset;
  k.radius = std::ldexp(k.radius, offset_exp);
  k.velocity = std::ldexp(1.0, velocity_exp) * k.velocity;
  k.duration = std::ldexp(k.duration, offset_exp - velocity_exp);
  return k;
}

/// The case with one input moved by one ulp, for each input and both
/// directions.
std::vector<ContactCase> nudges(const ContactCase& k) {
  std::vector<ContactCase> out;
  for (const double toward : {1e308, -1e308}) {
    for (int input = 0; input < 6; ++input) {
      ContactCase n = k;
      double* const inputs[] = {&n.offset.x,   &n.offset.y, &n.velocity.x,
                                &n.velocity.y, &n.radius,   &n.duration};
      *inputs[input] = std::nextafter(*inputs[input], toward);
      out.push_back(n);
    }
  }
  return out;
}

// Each constructed case makes one decision exactly zero.
const ContactCase kOnCircle{{3.0, 4.0}, {-1.0, -1.0}, 5.0, 10.0};          // c = 0
const ContactCase kPerpendicular{{3.0, 4.0}, {-4.0, 3.0}, 1.0, 10.0};      // b = 0
const ContactCase kTangent{{3.0, 1.0}, {-1.0, 0.0}, 1.0, 10.0};            // b^2 - v2 c = 0
const ContactCase kVertexAtEnd{{3.0, 1.0}, {-1.0, 0.0}, 2.0, 3.0};         // v2 w + b = 0
const ContactCase kEndOnCircle{{3.0, 0.0}, {-1.0, 0.0}, 1.0, 2.0};         // q(w) = 0

TEST(ContactPredicates, ConstructedZerosAreExactZeros) {
  EXPECT_EQ(reference_sign(ContactSign::kClearance, kOnCircle), 0);
  EXPECT_EQ(reference_sign(ContactSign::kApproach, kPerpendicular), 0);
  EXPECT_EQ(reference_sign(ContactSign::kDiscriminant, kTangent), 0);
  EXPECT_EQ(reference_sign(ContactSign::kVertexMargin, kVertexAtEnd), 0);
  EXPECT_EQ(reference_sign(ContactSign::kEndClearance, kEndOnCircle), 0);
  // q(w) = 0 is reached: the vertex (s = 3) lies past the window end.
  EXPECT_LT(reference_sign(ContactSign::kVertexMargin, kEndOnCircle), 0);
  EXPECT_EQ(first_contact(kEndOnCircle.offset, kEndOnCircle.velocity, kEndOnCircle.radius,
                          kEndOnCircle.duration),
            2.0);
  EXPECT_EQ(first_contact(kOnCircle.offset, kOnCircle.velocity, kOnCircle.radius, 10.0), 0.0);
  EXPECT_EQ(first_contact(kTangent.offset, kTangent.velocity, kTangent.radius, 10.0), 3.0);
}

TEST(ContactPredicates, ExactZerosFallBackToRational) {
  // A zero can never clear its error bound, so the filter must hand every
  // one of them to Rational and count the fallback.
  const ExactOnlyGuard guard(false);
  const auto fallbacks = [] { return exact_fallbacks(); };
  for (const auto& [which, k] : std::vector<std::pair<ContactSign, ContactCase>>{
           {ContactSign::kClearance, kOnCircle},
           {ContactSign::kApproach, kPerpendicular},
           {ContactSign::kDiscriminant, kTangent},
           {ContactSign::kVertexMargin, kVertexAtEnd},
           {ContactSign::kEndClearance, kEndOnCircle}}) {
    const std::uint64_t before = fallbacks();
    EXPECT_EQ(filtered_sign(which, k), 0) << describe(k);
    EXPECT_EQ(fallbacks(), before + 1) << describe(k);
  }
  // A clear-cut decision costs no fallback.
  const std::uint64_t before = fallbacks();
  EXPECT_EQ(filtered_sign(ContactSign::kApproach, kTangent), -1);
  EXPECT_EQ(fallbacks(), before);
}

TEST(ContactPredicates, ConstructedNearDegenerateCasesMatchRational) {
  const std::vector<ContactCase> bases = {
      kOnCircle,
      {{3.0, 4.0}, {1.0, 1.0}, 5.0, 10.0},    // on the circle, receding
      {{3.0, 4.0}, {-4.0, 3.0}, 5.0, 10.0},   // on the circle, tangential
      kPerpendicular,
      {{3.0, 4.0}, {-4.0, 3.0}, 6.0, 10.0},   // perpendicular, inside
      kTangent,
      {{5.0, -3.0}, {-0.5, 0.0}, 3.0, 1e6},   // grazing from below
      kVertexAtEnd,
      kEndOnCircle,
      {{0.6, 0.8}, {-0.3, -0.4}, 1.0, 7.0},   // decimal near-circle
  };
  const int offset_exps[] = {-1000, -520, -150, 0, 150, 500};
  const int velocity_exps[] = {-500, 0, 480};
  for (const ContactCase& base : bases) {
    for (const int k : offset_exps) {
      for (const int j : velocity_exps) {
        const ContactCase c = scaled(base, k, j);
        expect_exact(c);
        for (const ContactCase& n : nudges(c)) expect_exact(n);
      }
    }
  }
}

TEST(ContactPredicates, RandomInputsMatchRational) {
  std::mt19937_64 rng(20200715);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> jitter(-40, 40);
  std::uniform_int_distribution<int> wide(-1070, 1000);
  const int scales[] = {-1000, -300, 0, 300, 500};
  const ExactOnlyGuard guard(false);
  std::uint64_t moderate_fallbacks = 0;
  for (int round = 0; round < 3000; ++round) {
    ContactCase k;
    if (round < 1000) {
      // The simulator's regime: moderate coordinates, speeds and windows.
      k = {{8 * unit(rng), 8 * unit(rng)}, {3 * unit(rng), 3 * unit(rng)},
           0.1 + 4 * std::fabs(unit(rng)), 0.01 + 20 * std::fabs(unit(rng))};
      const std::uint64_t before = exact_fallbacks();
      for (const ContactSign which : kAllSigns) (void)filtered_sign(which, k);
      moderate_fallbacks += exact_fallbacks() - before;
    } else if (round < 2000) {
      // One shared magnitude with per-component jitter, near the overflow
      // and underflow ends included.
      const int scale = scales[round % 5];
      const auto draw = [&](int base) { return std::ldexp(unit(rng), base + jitter(rng)); };
      k = {{draw(scale), draw(scale)}, {draw(0), draw(0)}, std::fabs(draw(scale)),
           std::fabs(draw(0))};
    } else {
      // Independent magnitudes per input (mixed scales), with exact zeros.
      const auto draw = [&] { return rng() % 16 == 0 ? 0.0 : std::ldexp(unit(rng), wide(rng)); };
      k = {{draw(), draw()}, {draw(), draw()}, std::fabs(draw()), std::fabs(draw())};
    }
    expect_exact(k);
  }
  // The bounds are tight enough that generic inputs almost never fall back:
  // at most 1% of the 5000 moderate decisions.
  EXPECT_LE(moderate_fallbacks, 50u);
}

TEST(ContactPredicates, RandomNearZerosMatchRational) {
  // Random configurations solved (in doubles) to put one decision at zero:
  // each lands within a few ulps of it, where the error bound must either
  // still certify the sign or hand the decision to Rational.
  std::mt19937_64 rng(5318008);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> scale(-300, 300);
  for (int round = 0; round < 2000; ++round) {
    const int k = scale(rng);
    const int j = scale(rng) / 4;
    ContactCase c{{std::ldexp(unit(rng), k), std::ldexp(unit(rng), k)},
                  {std::ldexp(unit(rng), j), std::ldexp(unit(rng), j)},
                  std::ldexp(std::fabs(unit(rng)), k), std::ldexp(std::fabs(unit(rng)), k - j)};
    const double b = c.offset.dot(c.velocity);
    const double v2 = c.velocity.norm2();
    switch (round % 4) {
      case 0:  // start on the circle: c ~ 0
        c.radius = c.offset.norm();
        break;
      case 1:  // graze the circle: b^2 - v2 c ~ 0
        c.radius = std::sqrt(std::fabs(c.offset.norm2() - b * b / v2));
        break;
      case 2:  // vertex at the window end: v2 w + b ~ 0
        c.duration = std::fabs(b / v2);
        break;
      default: {  // window end on the circle: q(w) ~ 0
        const double r2 = c.offset.norm2() * std::fabs(unit(rng));
        c.radius = std::sqrt(r2);
        const double d = b * b - v2 * (c.offset.norm2() - r2);
        c.duration = std::fabs((-b + std::sqrt(std::max(d, 0.0))) / v2);
      }
    }
    expect_exact(c);
    for (const ContactCase& n : nudges(c)) expect_exact(n);
  }
}

TEST(ContactPredicates, InfiniteWindowIsTheWholeRay) {
  // A wait of 2^(15 i^2) units overflows the double window at i = 9; both
  // predicates must treat that window as the whole ray s >= 0 in both modes.
  const double inf = Rational::pow2(15 * 9 * 9).to_double();
  ASSERT_TRUE(std::isinf(inf));
  for (const bool exact_only : {false, true}) {
    const ExactOnlyGuard guard(exact_only);
    EXPECT_EQ(first_contact(Vec2{3.0, 0.0}, Vec2{-1.0, 0.0}, 1.0, inf), 2.0);
    const auto far = first_contact(Vec2{1e300, 1.0}, Vec2{-1.0, 0.0}, 2.0, inf);
    ASSERT_TRUE(far.has_value());
    EXPECT_TRUE(std::isfinite(*far));
    EXPECT_EQ(first_contact(Vec2{0.5, 0.0}, Vec2{1.0, 0.0}, 1.0, inf), 0.0);
    EXPECT_FALSE(first_contact(Vec2{3.0, 0.0}, Vec2{1.0, 0.0}, 1.0, inf).has_value());
    EXPECT_FALSE(first_contact(Vec2{3.0, 2.0}, Vec2{-1.0, 0.0}, 1.0, inf).has_value());
    EXPECT_FALSE(first_contact(Vec2{3.0, 0.0}, Vec2{}, 1.0, inf).has_value());

    const auto pass = contact_interval(Vec2{3.0, 0.0}, Vec2{-1.0, 0.0}, 1.0, inf);
    ASSERT_TRUE(pass.has_value());
    EXPECT_EQ(pass->enter, 2.0);
    EXPECT_EQ(pass->exit, 4.0);
    const auto leaving = contact_interval(Vec2{0.5, 0.0}, Vec2{1.0, 0.0}, 1.0, inf);
    ASSERT_TRUE(leaving.has_value());
    EXPECT_EQ(leaving->enter, 0.0);
    EXPECT_EQ(leaving->exit, 0.5);
    const auto still = contact_interval(Vec2{0.5, 0.0}, Vec2{}, 1.0, inf);
    ASSERT_TRUE(still.has_value());
    EXPECT_EQ(still->exit, inf);
    EXPECT_FALSE(contact_interval(Vec2{3.0, 0.0}, Vec2{1.0, 0.0}, 1.0, inf).has_value());
    EXPECT_FALSE(contact_interval(Vec2{3.0, 2.0}, Vec2{-1.0, 0.0}, 1.0, inf).has_value());
  }
}

}  // namespace
}  // namespace aurv::geom
