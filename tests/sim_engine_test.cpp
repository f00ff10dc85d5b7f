// Tests for the event-driven rendezvous simulator: timing semantics of the
// agent frames, first-contact detection, freeze-on-sight, huge exact waits,
// horizon/fuel stops, and the Section 5 distinct-radii model.
#include <gtest/gtest.h>

#include <cmath>

#include "agents/instance.hpp"
#include "geom/angle.hpp"
#include "program/combinators.hpp"
#include "program/instruction.hpp"
#include "sim/engine.hpp"

namespace aurv::sim {
namespace {

using agents::Instance;
using geom::Vec2;
using numeric::Rational;
using program::go;
using program::go_east;
using program::go_north;
using program::go_west;
using program::replay;
using program::wait;

Instance basic_instance(Vec2 b_start, double r = 1.0) {
  return Instance::synchronous(r, b_start, /*phi=*/0.0, /*t=*/0, /*chi=*/1);
}

program::Program endless_dance() {
  const program::Instruction east = go_east(1);
  const program::Instruction west = go_west(1);
  while (true) {
    co_yield east;
    co_yield west;
  }
}

TEST(Engine, TrivialOverlapMeetsAtTimeZero) {
  const Instance inst = basic_instance(Vec2{0.5, 0.0}, /*r=*/1.0);
  const SimResult result = Engine(inst, {}).run(replay({}), replay({}));
  EXPECT_TRUE(result.met);
  EXPECT_EQ(result.reason, StopReason::Rendezvous);
  EXPECT_DOUBLE_EQ(result.meet_time, 0.0);
  EXPECT_DOUBLE_EQ(result.final_distance, 0.5);
}

TEST(Engine, HeadOnApproachMeetsAtRadius) {
  const Instance inst = basic_instance(Vec2{10.0, 0.0});
  const SimResult result = Engine(inst, {}).run(replay({go_east(20)}), replay({wait(100)}));
  ASSERT_TRUE(result.met);
  // A closes at speed 1 until distance r (+slack): meet at ~9.
  EXPECT_NEAR(result.meet_time, 9.0, 1e-6);
  EXPECT_NEAR(result.final_distance, 1.0, 1e-6);
  EXPECT_NEAR(result.a_position.x, 9.0, 1e-6);
  EXPECT_EQ(result.b_position, (Vec2{10.0, 0.0}));
}

TEST(Engine, BothIdleWhenProgramsEndApart) {
  const Instance inst = basic_instance(Vec2{10.0, 0.0});
  const SimResult result = Engine(inst, {}).run(replay({go_east(2)}), replay({go_east(2)}));
  EXPECT_FALSE(result.met);
  EXPECT_EQ(result.reason, StopReason::BothIdle);
  EXPECT_NEAR(result.final_distance, 10.0, 1e-9);  // parallel motion, constant gap
  EXPECT_NEAR(result.min_distance_seen, 10.0, 1e-9);
}

TEST(Engine, WakeUpDelayHoldsAgentB) {
  // B wakes at t=6. Both programs say "go east 4"; B's motion starts at 6.
  Instance inst = basic_instance(Vec2{0.0, 10.0}).with_delay(6);
  EngineConfig config;
  config.trace_capacity = 1024;
  const SimResult result =
      Engine(inst, config).run(replay({go_east(4)}), replay({go_east(4)}));
  EXPECT_FALSE(result.met);
  EXPECT_EQ(result.reason, StopReason::BothIdle);
  // B ends displaced east by 4 from (0,10) — same displacement, delayed.
  EXPECT_NEAR(result.b_position.x, 4.0, 1e-9);
  EXPECT_NEAR(result.b_position.y, 10.0, 1e-9);
  // The trace shows B still at its start at the time A finished (t=4).
  bool saw_b_static_at_4 = false;
  for (const TracePoint& point : result.trace.points()) {
    if (std::abs(point.time - 4.0) < 1e-12) {
      saw_b_static_at_4 = std::abs(point.b.x) < 1e-12;
    }
  }
  EXPECT_TRUE(saw_b_static_at_4);
}

TEST(Engine, ClockRateScalesDurations) {
  // tau = 2: B's go(4) takes 8 absolute time units; with v = 1 its length
  // unit is 2, so it covers 8 absolute units of distance.
  const Instance inst(1.0, Vec2{0.0, 30.0}, 0.0, /*tau=*/2, /*v=*/1, /*t=*/0, 1);
  EngineConfig config;
  config.trace_capacity = 1024;
  const SimResult result =
      Engine(inst, config).run(replay({go_east(4)}), replay({go_east(4)}));
  EXPECT_EQ(result.reason, StopReason::BothIdle);
  EXPECT_NEAR(result.b_position.x, 8.0, 1e-9);
  // Find B's position halfway through its move (absolute time 4): speed v=1.
  for (const TracePoint& point : result.trace.points()) {
    if (std::abs(point.time - 4.0) < 1e-12) {
      EXPECT_NEAR(point.b.x, 4.0, 1e-9);
    }
  }
}

TEST(Engine, SpeedScalesVelocityAndLengthUnit) {
  // v = 3, tau = 1: B's go(2) covers 6 absolute units in 2 time units.
  const Instance inst(1.0, Vec2{0.0, 30.0}, 0.0, /*tau=*/1, /*v=*/3, /*t=*/0, 1);
  const SimResult result =
      Engine(inst, {}).run(replay({go_east(2)}), replay({go_east(2)}));
  EXPECT_NEAR(result.b_position.x, 6.0, 1e-9);
  EXPECT_NEAR(result.a_position.x, 2.0, 1e-9);
}

TEST(Engine, ChiralityMirrorsHeadings) {
  // chi = -1, phi = 0: B's "north" is absolute south.
  const Instance inst = Instance::synchronous(1.0, Vec2{0.0, 30.0}, 0.0, 0, -1);
  const SimResult result =
      Engine(inst, {}).run(replay({go_north(2)}), replay({go_north(2)}));
  EXPECT_NEAR(result.a_position.y, 2.0, 1e-9);
  EXPECT_NEAR(result.b_position.y, 28.0, 1e-9);
}

TEST(Engine, RotationTurnsHeadings) {
  // phi = pi/2: B's east is absolute north.
  const Instance inst = Instance::synchronous(1.0, Vec2{30.0, 0.0}, geom::kPi / 2, 0, 1);
  const SimResult result =
      Engine(inst, {}).run(replay({go_east(2)}), replay({go_east(2)}));
  EXPECT_NEAR(result.a_position.x, 2.0, 1e-9);
  EXPECT_NEAR(result.b_position.x, 30.0, 1e-9);
  EXPECT_NEAR(result.b_position.y, 2.0, 1e-9);
}

TEST(Engine, HugeWaitsKeepExactTimeline) {
  // A waits 2^200 time units and then closes in. Double time would lose the
  // sub-unit structure entirely; the rational timeline must not.
  const Instance inst = basic_instance(Vec2{4.0, 0.0});
  const Rational huge = Rational::pow2(200);
  const SimResult result = Engine(inst, {}).run(
      replay({wait(huge), go_east(10)}), replay({wait(huge + Rational(100))}));
  ASSERT_TRUE(result.met);
  // Meet occurs inside the window starting exactly at 2^200.
  EXPECT_EQ(result.meet_window_start, huge);
  EXPECT_NEAR(result.meet_window_offset, 3.0, 1e-6);  // 4 - r
  EXPECT_NEAR(result.final_distance, 1.0, 1e-6);
}

TEST(Engine, FuelExhaustionStopsCleanly) {
  const Instance inst = basic_instance(Vec2{100.0, 0.0});
  EngineConfig config;
  config.max_events = 50;
  // Endless tiny shuttle dance, never approaching.
  const SimResult result = Engine(inst, config).run(endless_dance(), endless_dance());
  EXPECT_FALSE(result.met);
  EXPECT_EQ(result.reason, StopReason::FuelExhausted);
  EXPECT_LE(result.events, 50u);
}

TEST(Engine, HorizonStopsAtExactTime) {
  const Instance inst = basic_instance(Vec2{100.0, 0.0});
  EngineConfig config;
  config.horizon = Rational(7);
  const SimResult result =
      Engine(inst, config).run(replay({go_east(50)}), replay({wait(100)}));
  EXPECT_FALSE(result.met);
  EXPECT_EQ(result.reason, StopReason::HorizonReached);
  EXPECT_NEAR(result.a_position.x, 7.0, 1e-9);
  EXPECT_NEAR(result.final_distance, 93.0, 1e-9);
}

TEST(Engine, MinDistanceSeenOnFlyBy) {
  // A passes B at lateral offset 2 with r = 1: no rendezvous, min ~2.
  const Instance inst = basic_instance(Vec2{10.0, 2.0});
  const SimResult result = Engine(inst, {}).run(replay({go_east(20)}), replay({wait(30)}));
  EXPECT_FALSE(result.met);
  EXPECT_NEAR(result.min_distance_seen, 2.0, 1e-9);
}

TEST(Engine, GrazingContactWithinSlack) {
  // Closest approach exactly r: declared rendezvous thanks to contact_slack.
  const Instance inst = basic_instance(Vec2{10.0, 1.0});
  const SimResult result = Engine(inst, {}).run(replay({go_east(20)}), replay({wait(30)}));
  EXPECT_TRUE(result.met);
  EXPECT_NEAR(result.final_distance, 1.0, 1e-3);
}

TEST(Engine, ZeroDurationInstructionsDoNotHang) {
  const Instance inst = basic_instance(Vec2{50.0, 0.0});
  EngineConfig config;
  config.max_events = 1000;
  const SimResult result = Engine(inst, config).run(
      replay({go_east(0), go_east(0), wait(0), go_east(1)}),
      replay({go_east(0), wait(2)}));
  EXPECT_EQ(result.reason, StopReason::BothIdle);
  EXPECT_NEAR(result.a_position.x, 1.0, 1e-9);
}

TEST(Engine, AnonymousFactoryRunsSameProgramOnBoth) {
  // Identical frames, delayed B: both trace out the same "L", displaced.
  const Instance inst = basic_instance(Vec2{3.0, 40.0}).with_delay(2);
  const SimResult result = simulate(
      inst, [] { return replay({go_east(2), go_north(1)}); }, {});
  EXPECT_EQ(result.reason, StopReason::BothIdle);
  EXPECT_NEAR(result.a_position.x, 2.0, 1e-9);
  EXPECT_NEAR(result.a_position.y, 1.0, 1e-9);
  EXPECT_NEAR(result.b_position.x, 5.0, 1e-9);
  EXPECT_NEAR(result.b_position.y, 41.0, 1e-9);
}

TEST(Engine, DistinctRadiiFarSightedFreezes) {
  // Section 5: A sees at 5, B at 1. A approaches and freezes at distance 5;
  // B never moves, so the run ends apart (no mutual sighting).
  const Instance inst = basic_instance(Vec2{10.0, 0.0});
  EngineConfig config;
  config.r_a = 5.0;
  config.r_b = 1.0;
  const SimResult result = Engine(inst, config).run(replay({go_east(20)}), replay({wait(50)}));
  EXPECT_FALSE(result.met);
  EXPECT_EQ(result.reason, StopReason::BothIdle);
  EXPECT_NEAR(result.final_distance, 5.0, 1e-6);  // frozen at its own radius
}

TEST(Engine, DistinctRadiiCompletesWhenNearSightedCloses) {
  // A (radius 5) walks in and freezes at distance 5; B (radius 1) then
  // closes to distance 1 — rendezvous complete.
  const Instance inst = basic_instance(Vec2{10.0, 0.0});
  EngineConfig config;
  config.r_a = 5.0;
  config.r_b = 1.0;
  const SimResult result =
      Engine(inst, config).run(replay({go_east(4), wait(100)}),
                               replay({wait(10), go_west(20)}));
  ASSERT_TRUE(result.met);
  EXPECT_NEAR(result.final_distance, 1.0, 1e-6);
  // A froze at x=4 (wait), never moved further; B closed the gap westward.
  EXPECT_NEAR(result.a_position.x, 4.0, 1e-6);
  EXPECT_NEAR(result.b_position.x, 5.0, 1e-6);
}

TEST(Engine, DistinctRadiiFreezeMidMove) {
  // A's radius is 6; it freezes mid-instruction the moment dist hits 6.
  const Instance inst = basic_instance(Vec2{10.0, 0.0});
  EngineConfig config;
  config.r_a = 6.0;
  config.r_b = 0.5;
  const SimResult result =
      Engine(inst, config).run(replay({go_east(20), wait(100)}),
                               replay({wait(100)}));
  EXPECT_FALSE(result.met);
  EXPECT_NEAR(result.a_position.x, 4.0, 1e-6);  // froze at distance 6
  EXPECT_NEAR(result.final_distance, 6.0, 1e-6);
}

TEST(Engine, TraceRecordsBoundariesUpToCapacity) {
  const Instance inst = basic_instance(Vec2{100.0, 0.0});
  EngineConfig config;
  config.trace_capacity = 4;
  const SimResult result = Engine(inst, config).run(
      replay({go_east(1), go_east(1), go_east(1), go_east(1), go_east(1)}),
      replay({wait(10)}));
  EXPECT_EQ(result.trace.points().size(), 4u);
  EXPECT_GT(result.trace.dropped(), 0u);
  // Times are nondecreasing.
  for (std::size_t k = 1; k < result.trace.points().size(); ++k) {
    EXPECT_LE(result.trace.points()[k - 1].time, result.trace.points()[k].time);
  }
}

TEST(Engine, InstructionCountsReported) {
  const Instance inst = basic_instance(Vec2{100.0, 0.0});
  const SimResult result = Engine(inst, {}).run(
      replay({go_east(1), go_west(1), wait(1)}), replay({wait(5)}));
  EXPECT_EQ(result.instructions_a, 3u);
  EXPECT_EQ(result.instructions_b, 1u);
}

TEST(Engine, ConfigValidation) {
  EngineConfig bad;
  bad.r_a = -1.0;
  EXPECT_THROW(Engine(basic_instance(Vec2{5, 0}), bad), std::logic_error);
  EngineConfig negative_slack;
  negative_slack.contact_slack = -3.0;
  EXPECT_THROW(Engine(basic_instance(Vec2{5, 0}), negative_slack), std::logic_error);
  EngineConfig negative_horizon;
  negative_horizon.horizon = Rational(-5);
  EXPECT_THROW(Engine(basic_instance(Vec2{5, 0}), negative_horizon), std::logic_error);
  EngineConfig zero_horizon;
  zero_horizon.horizon = Rational(0);
  EXPECT_NO_THROW(Engine(basic_instance(Vec2{5, 0}), zero_horizon));
}

}  // namespace
}  // namespace aurv::sim
