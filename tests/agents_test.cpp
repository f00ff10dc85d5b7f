// Tests for the instance model and agent frames (Section 1.2 of the paper).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "agents/frame.hpp"
#include "agents/instance.hpp"
#include "agents/sampler.hpp"
#include "geom/angle.hpp"

namespace aurv::agents {
namespace {

using geom::Vec2;
using numeric::Rational;

Instance sample_instance() {
  return Instance(/*r=*/0.5, Vec2{3.0, 4.0}, /*phi=*/geom::kPi / 3, /*tau=*/Rational(2),
                  /*v=*/Rational(numeric::BigInt(3), numeric::BigInt(2)), /*t=*/Rational(5),
                  /*chi=*/-1);
}

TEST(Instance, ValidationRejectsBadParameters) {
  EXPECT_THROW(Instance(0.0, Vec2{1, 1}, 0, 1, 1, 0, 1), std::logic_error);
  EXPECT_THROW(Instance(-1.0, Vec2{1, 1}, 0, 1, 1, 0, 1), std::logic_error);
  EXPECT_THROW(Instance(1.0, Vec2{1, 1}, 0, 0, 1, 0, 1), std::logic_error);
  EXPECT_THROW(Instance(1.0, Vec2{1, 1}, 0, 1, Rational(-1), 0, 1), std::logic_error);
  EXPECT_THROW(Instance(1.0, Vec2{1, 1}, 0, 1, 1, Rational(-1), 1), std::logic_error);
  EXPECT_THROW(Instance(1.0, Vec2{1, 1}, 0, 1, 1, 0, 0), std::logic_error);
  EXPECT_THROW(Instance(1.0, Vec2{1, 1}, 0, 1, 1, 0, 2), std::logic_error);
}

TEST(Instance, PhiNormalizedToPrincipalRange) {
  const Instance wrapped(1.0, Vec2{2, 0}, 2 * geom::kTwoPi + 1.0, 1, 1, 0, 1);
  EXPECT_NEAR(wrapped.phi(), 1.0, 1e-9);
  const Instance negative(1.0, Vec2{2, 0}, -geom::kPi / 2, 1, 1, 0, 1);
  EXPECT_NEAR(negative.phi(), 3 * geom::kPi / 2, 1e-9);
}

TEST(Instance, SynchronousDetectionIsExact) {
  EXPECT_TRUE(Instance::synchronous(1.0, Vec2{2, 0}, 0.0, 0, 1).is_synchronous());
  const Instance almost(1.0, Vec2{2, 0}, 0.0,
                        Rational(numeric::BigInt(1000000001), numeric::BigInt(1000000000)), 1, 0,
                        1);
  EXPECT_FALSE(almost.is_synchronous());  // off by 1e-9: still non-synchronous
  EXPECT_FALSE(sample_instance().is_synchronous());
}

TEST(Instance, DerivedQuantities) {
  const Instance inst = sample_instance();
  EXPECT_DOUBLE_EQ(inst.initial_distance(), 5.0);
  EXPECT_EQ(inst.b_length_unit(), Rational(3));  // tau*v = 2 * 3/2
  EXPECT_DOUBLE_EQ(inst.b_length_unit_d(), 3.0);
  EXPECT_DOUBLE_EQ(inst.t_d(), 5.0);
  // Canonical line at inclination phi/2 through the midpoint.
  const geom::Line line = inst.canonical_line();
  EXPECT_NEAR(geom::line_angle_between(line.inclination(), geom::kPi / 6), 0.0, 1e-9);
  EXPECT_NEAR(line.distance_to(Vec2{0, 0}), line.distance_to(inst.b_start()), 1e-9);
}

TEST(Instance, TransformHelpers) {
  const Instance inst = sample_instance();
  const Instance h = inst.halved_radius_zero_delay();
  EXPECT_DOUBLE_EQ(h.r(), inst.r() / 2);
  EXPECT_TRUE(h.t().is_zero());
  EXPECT_EQ(h.tau(), inst.tau());
  EXPECT_EQ(inst.with_radius(2.0).r(), 2.0);
  EXPECT_EQ(inst.with_delay(7).t(), Rational(7));
}

TEST(Instance, BPoseMapsLocalToAbsolute) {
  const Instance inst = sample_instance();
  const geom::Similarity pose = inst.b_pose();
  // B's origin maps to its start.
  EXPECT_NEAR(geom::dist(pose.apply(Vec2{0, 0}), inst.b_start()), 0.0, 1e-12);
  // One local x-unit maps to length tau*v at absolute angle phi.
  const Vec2 unit_x = pose.apply(Vec2{1, 0}) - inst.b_start();
  EXPECT_NEAR(unit_x.norm(), 3.0, 1e-12);
  EXPECT_NEAR(std::atan2(unit_x.y, unit_x.x), inst.phi(), 1e-12);
  // chi = -1: B's local +y maps clockwise from its +x.
  const Vec2 unit_y = pose.apply(Vec2{0, 1}) - inst.b_start();
  EXPECT_NEAR(unit_x.cross(unit_y), -9.0, 1e-9);  // negative orientation, |x||y|
}

TEST(Instance, MirroredDescribesSamePhysicalConfiguration) {
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> coord(-4.0, 4.0);
  std::uniform_real_distribution<double> angle(0.0, geom::kTwoPi);
  for (int k = 0; k < 100; ++k) {
    const int chi = (k % 2) ? 1 : -1;
    const Instance inst(1.25, Vec2{coord(rng), coord(rng)}, angle(rng),
                        Rational(numeric::BigInt(3), numeric::BigInt(2)),
                        Rational(numeric::BigInt(4), numeric::BigInt(5)), 0, chi);
    const Instance mirror = inst.mirrored();
    // Mirror twice returns the original parameters.
    const Instance twice = mirror.mirrored();
    EXPECT_NEAR(twice.r(), inst.r(), 1e-9);
    EXPECT_NEAR(geom::dist(twice.b_start(), inst.b_start()), 0.0, 1e-9);
    EXPECT_NEAR(geom::ray_angle_between(twice.phi(), inst.phi()), 0.0, 1e-9);
    EXPECT_EQ(twice.tau(), inst.tau());
    EXPECT_EQ(twice.v(), inst.v());
    EXPECT_EQ(twice.chi(), inst.chi());
    // The mirror's pose is the inverse of the original pose (A as seen in
    // B's frame, including unit rescaling).
    const geom::Similarity expected = inst.b_pose().inverse();
    EXPECT_NEAR(geom::dist(mirror.b_start(), expected.apply(Vec2{0, 0})), 0.0, 1e-9);
    // r expressed in B's length unit.
    EXPECT_NEAR(mirror.r(), inst.r() / inst.b_length_unit_d(), 1e-12);
    EXPECT_EQ(mirror.tau(), inst.tau().reciprocal());
    EXPECT_EQ(mirror.v(), inst.v().reciprocal());
  }
  EXPECT_THROW((void)sample_instance().mirrored(), std::logic_error);  // t != 0
}

TEST(AgentFrame, ConventionForAgentA) {
  const AgentFrame a = AgentFrame::for_a(sample_instance());
  EXPECT_EQ(a.time_unit(), Rational(1));
  EXPECT_EQ(a.wake_time(), Rational(0));
  EXPECT_DOUBLE_EQ(a.speed(), 1.0);
  EXPECT_DOUBLE_EQ(a.length_unit(), 1.0);
  EXPECT_EQ(a.start_position(), (Vec2{0, 0}));
  EXPECT_DOUBLE_EQ(a.absolute_heading(0.7), 0.7);
  EXPECT_EQ(a.absolute_time(Rational(9)), Rational(9));
}

TEST(AgentFrame, DerivedForAgentB) {
  const Instance inst = sample_instance();
  const AgentFrame b = AgentFrame::for_b(inst);
  EXPECT_EQ(b.time_unit(), Rational(2));
  EXPECT_EQ(b.wake_time(), Rational(5));
  EXPECT_DOUBLE_EQ(b.speed(), 1.5);
  EXPECT_DOUBLE_EQ(b.length_unit(), 3.0);
  EXPECT_EQ(b.start_position(), inst.b_start());
  // local elapsed z -> absolute t + tau*z.
  EXPECT_EQ(b.absolute_time(Rational(3)), Rational(11));
  // Heading through rotation phi and chirality -1: phi - beta.
  EXPECT_NEAR(b.absolute_heading(0.4), geom::normalize_angle(inst.phi() - 0.4), 1e-12);
  EXPECT_EQ(AgentFrame::for_agent(inst, AgentId::B).wake_time(), Rational(5));
  EXPECT_EQ(AgentFrame::for_agent(inst, AgentId::A).wake_time(), Rational(0));
}

TEST(SampleStream, MatchesSeedSeqSeededEngine) {
  // The oracle: std::seed_seq over the four 32-bit halves, low word first.
  // 700 draws cover more than one 312-word twist of the state.
  constexpr int kDraws = 700;
  const auto reference = [](std::uint64_t seed, std::uint64_t sample) {
    std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                      static_cast<std::uint32_t>(sample),
                      static_cast<std::uint32_t>(sample >> 32)};
    std::mt19937_64 rng(seq);
    std::vector<std::uint64_t> draws(kDraws);
    for (std::uint64_t& draw : draws) draw = rng();
    return draws;
  };
  std::vector<std::uint64_t> samples;
  for (std::uint64_t k = 0; k < 500; ++k) samples.push_back(k);
  for (std::uint64_t k = 0; k < 500; ++k) samples.push_back((std::uint64_t{1} << 32) - 250 + k);
  for (std::uint64_t k = 0; k < 4; ++k) samples.push_back(~std::uint64_t{0} - k);
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2020},
                                   (std::uint64_t{1} << 32) - 1, std::uint64_t{1} << 32,
                                   std::uint64_t{0xdeadbeefcafebabe}, ~std::uint64_t{0}}) {
    for (const std::uint64_t sample : samples) {
      std::mt19937_64 rng = sample_stream(seed, sample);
      std::vector<std::uint64_t> draws(kDraws);
      for (std::uint64_t& draw : draws) draw = rng();
      ASSERT_EQ(draws, reference(seed, sample)) << "seed " << seed << " sample " << sample;
    }
  }
}

}  // namespace
}  // namespace aurv::agents
