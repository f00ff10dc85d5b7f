// Golden regression fixtures: exact observed outcomes for fixed scenarios.
// The simulation is deterministic, so these values are stable across runs;
// any drift signals a behavioral change in the algorithm transcription,
// the engine's event ordering, or the numeric substrate — the three places
// a regression would otherwise hide.
#include <gtest/gtest.h>

#include "core/almost_universal.hpp"
#include "core/feasibility.hpp"
#include "geom/angle.hpp"
#include "numeric/bigint.hpp"
#include "sim/engine.hpp"

namespace aurv::core {
namespace {

using agents::Instance;
using geom::Vec2;
using numeric::BigInt;
using numeric::Rational;

sim::SimResult run(const Instance& instance, std::uint64_t fuel = 40'000'000) {
  sim::EngineConfig config;
  config.max_events = fuel;
  return sim::Engine(instance, config).run([] { return almost_universal_rv(); });
}

TEST(Golden, Type1Canonical) {
  // The README/quickstart instance.
  const sim::SimResult result = run(Instance::synchronous(
      1.0, Vec2{2.0, 0.6}, 0.0, Rational::from_string("3/2"), -1));
  ASSERT_TRUE(result.met);
  EXPECT_NEAR(result.meet_time, 43.344663, 1e-5);
  EXPECT_EQ(result.events, 38u);
  EXPECT_NEAR(result.a_position.x, -0.6553, 1e-4);
  EXPECT_NEAR(result.b_position.y, 0.7553, 1e-4);
}

TEST(Golden, Type2Canonical) {
  const sim::SimResult result =
      run(Instance::synchronous(1.0, Vec2{1.5, 0.0}, 0.0, 1, 1));
  ASSERT_TRUE(result.met);
  EXPECT_NEAR(result.meet_time, 42.588562, 1e-5);
  EXPECT_EQ(result.events, 38u);
}

TEST(Golden, Type4SpeedDifference) {
  const sim::SimResult result = run(Instance(0.8, Vec2{1.5, 0.0}, 0.0, 1, 2, 0, 1));
  ASSERT_TRUE(result.met);
  EXPECT_NEAR(result.meet_time, 16.7, 1e-6);
  EXPECT_EQ(result.events, 14u);
}

TEST(Golden, HardType4MeetsAfterHugeWait) {
  // v = 5/4, d = 5: the meet lands in phase 4, right after the phase-3
  // block-3 wait of 2^135 local units — the regime that requires the exact
  // rational timeline end to end (double saturates at 2^53).
  const Instance instance(1.0, Vec2{5.0, 0.0}, 0.0, 1, Rational::from_string("5/4"), 0, 1);
  const sim::SimResult result = run(instance, 120'000'000);
  ASSERT_TRUE(result.met);
  EXPECT_EQ(aurv_phase_at(result.meet_window_start), 4u);
  // The exact meet-window start exceeds 2^135 (and the double view agrees
  // in magnitude).
  EXPECT_GT(result.meet_window_start, Rational::pow2(135));
  EXPECT_LT(result.meet_window_start, Rational::pow2(136));
  EXPECT_NEAR(std::log2(result.meet_time), 135.0, 0.1);
  // Sub-unit structure above the huge integer part is preserved exactly:
  // the window start is not a round power of two.
  EXPECT_NE(result.meet_window_start, Rational::pow2(135));
  // The meet lies inside phase 4's block 1; pin it exactly.
  EXPECT_EQ(result.events, 49940u);
  EXPECT_EQ(result.meet_window_start,
            Rational::from_string("174224571863520493293252410691083752328737/4"));
}

TEST(Golden, BoundaryS1ExactMeetGeometry) {
  // Dedicated S1 on (3,4), r=1, t=4: meet at exactly t with A at 4/5 of
  // the way to B.
  const Instance instance = Instance::synchronous(1.0, Vec2{3.0, 4.0}, 0.0, 4, 1);
  const sim::SimResult result =
      sim::Engine(instance, {}).run(recommended_algorithm(instance));
  ASSERT_TRUE(result.met);
  EXPECT_NEAR(result.meet_time, 4.0, 1e-6);
  EXPECT_NEAR(result.a_position.x, 2.4, 1e-6);
  EXPECT_NEAR(result.a_position.y, 3.2, 1e-6);
  EXPECT_EQ(result.b_position, (Vec2{3.0, 4.0}));
}

TEST(Golden, InfeasibleClosestApproachIsTight) {
  // The analytic bound dist - t is *attained* (the algorithm's straight
  // runs realize the maximum displacement difference).
  const Instance instance = Instance::synchronous(1.0, Vec2{4.0, 0.0}, 0.0, 1, 1);
  const sim::SimResult result = run(instance, 1'000'000);
  EXPECT_FALSE(result.met);
  EXPECT_NEAR(result.min_distance_seen, 3.0, 1e-9);
}

}  // namespace
}  // namespace aurv::core
