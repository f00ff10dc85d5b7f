// Tests for the event-driven rendezvous simulator: timing semantics of the
// agent frames, first-contact detection, freeze-on-sight, huge exact waits,
// horizon/fuel stops, the Section 5 distinct-radii model, the run-relative
// clock past 2^62, and the per-thread unit-vector memo of the agent track.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "agents/instance.hpp"
#include "agents/sampler.hpp"
#include "core/almost_universal.hpp"
#include "geom/angle.hpp"
#include "geom/closest_approach.hpp"
#include "program/combinators.hpp"
#include "program/instruction.hpp"
#include "sim/engine.hpp"
#include "sim/track.hpp"
#include "support/telemetry.hpp"

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

// ---------------------------------------------------------------------------
// Runs that cross 2^62 run on the engine's rebased (run-relative) clock. The
// pinned values were recorded on the absolute clock the engine had before
// it rebased: every double must keep its bits.

/// FNV-1a over the bit patterns of a run's reported doubles and counts.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int k = 0; k < 8; ++k) {
      hash_ ^= (word >> (8 * k)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(Vec2 point) {
    add(point.x);
    add(point.y);
  }
  void add(const SimResult& result) {
    add(static_cast<std::uint64_t>(result.reason));
    add(result.meet_time);
    add(result.meet_window_offset);
    add(result.a_position);
    add(result.b_position);
    add(result.final_distance);
    add(result.min_distance_seen);
    add(result.events);
    add(result.instructions_a);
    add(result.instructions_b);
    for (const TracePoint& point : result.trace.points()) {
      add(point.time);
      add(point.a);
      add(point.b);
      add(point.distance);
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest_of(const SimResult& result) {
  Digest digest;
  digest.add(result);
  return digest.value();
}

TEST(RebasedClock, TracedPhaseFourMeetKeepsEveryTimeAndPosition) {
  // Golden.HardType4MeetsAfterHugeWait with a trace of every event: the
  // meet follows the phase-3 block-3 wait of 2^135 local units.
  const Instance inst(1.0, Vec2{5.0, 0.0}, 0.0, 1, Rational::from_string("5/4"), 0, 1);
  EngineConfig config;
  config.max_events = 120'000'000;
  config.trace_capacity = std::size_t{1} << 17;
  const SimResult result = Engine(inst, config).run([] { return core::almost_universal_rv(); });
  ASSERT_TRUE(result.met);
  EXPECT_EQ(result.events, 49940u);
  EXPECT_EQ(result.trace.dropped(), 0u);
  EXPECT_EQ(result.trace.points().size(), 24972u);
  EXPECT_EQ(result.meet_window_start,
            Rational::from_string("174224571863520493293252410691083752328737/4"));
  EXPECT_GE(result.trace.points().back().time, 0x1p135);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.meet_time), 0x4860000000000000ull);
  EXPECT_EQ(digest_of(result), 0xc717b9faf04033baull);
}

program::Program shuttle_after_huge_wait() {
  const program::Instruction first = wait(Rational::pow2(63));
  const program::Instruction east = go_east(Rational(numeric::BigInt(1), numeric::BigInt(3)));
  const program::Instruction north = go_north(Rational(numeric::BigInt(2), numeric::BigInt(7)));
  const program::Instruction last = wait(Rational::pow2(70));
  co_yield first;
  for (int k = 0; k < 20; ++k) {
    co_yield east;
    co_yield north;
  }
  co_yield last;
}

TEST(RebasedClock, HorizonAboveTwoToTheSixtyTwoStopsExactly) {
  // A non-dyadic horizon, 2^70 + 1/3, lands mid-move after the clock has
  // been rebased several times.
  const Instance inst = basic_instance(Vec2{40.0, 0.0});
  EngineConfig config;
  config.horizon = Rational::pow2(70) + Rational(numeric::BigInt(1), numeric::BigInt(3));
  config.trace_capacity = 64;
  const SimResult result = Engine(inst, config).run(
      shuttle_after_huge_wait(),
      replay({wait(Rational::pow2(69) + Rational(numeric::BigInt(1), numeric::BigInt(7))),
              go_west(Rational::pow2(71))}));
  EXPECT_FALSE(result.met);
  EXPECT_EQ(result.reason, StopReason::HorizonReached);
  EXPECT_EQ(result.events, 42u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.a_position.x), 0x401aaaaaaaaaaaa8ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.a_position.y), 0x4016db6db6db6db5ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.b_position.x), 0xc440000000000000ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.min_distance_seen), 0x4016db6db6db6db0ull);
  EXPECT_EQ(digest_of(result), 0xefd15733a748e8d9ull);
}

TEST(RebasedClock, DistinctRadiiFreezeAfterHugeWait) {
  // Section 5 radii: A (radius 5) wakes from a wait of 2^100 + 1/3, walks
  // in and freezes at distance 5; B (radius 1) wakes 2^40 units later and
  // closes to distance 1.
  const Instance inst = basic_instance(Vec2{10.0, 0.0});
  EngineConfig config;
  config.r_a = 5.0;
  config.r_b = 1.0;
  config.trace_capacity = 64;
  const Rational wake = Rational::pow2(100) + Rational(numeric::BigInt(1), numeric::BigInt(3));
  const SimResult result = Engine(inst, config).run(
      replay({wait(wake), go_east(20), wait(100)}),
      replay({wait(wake + Rational::pow2(40)), go_west(20)}));
  ASSERT_TRUE(result.met);
  EXPECT_EQ(result.events, 3u);
  EXPECT_EQ(result.meet_window_start.to_string(), "3802951800684688207788644499457/3");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.meet_time), 0x4630000000000000ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.a_position.x), 0x4013ffffffeed1f3ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.b_position.x), 0x4017ffffffffffffull);
  EXPECT_EQ(digest_of(result), 0x86778921c8ce1765ull);
}

// ---------------------------------------------------------------------------
// Exact-only mode switches off the window cull along with the contact and
// distance filters, so a run must report the same bits either way.

SimResult run_algorithm_one(const Instance& inst, const EngineConfig& config, bool exact_only) {
  const bool previous = geom::exact_contacts_only();
  geom::set_exact_contacts_only(exact_only);
  SimResult result = Engine(inst, config).run([] { return core::almost_universal_rv(); });
  geom::set_exact_contacts_only(previous);
  return result;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_run(const SimResult& plain, const SimResult& exact) {
  EXPECT_EQ(plain.reason, exact.reason);
  EXPECT_EQ(plain.events, exact.events);
  EXPECT_EQ(plain.instructions_a, exact.instructions_a);
  EXPECT_EQ(plain.instructions_b, exact.instructions_b);
  EXPECT_EQ(plain.meet_window_start, exact.meet_window_start);
  EXPECT_TRUE(same_bits(plain.meet_time, exact.meet_time));
  EXPECT_TRUE(same_bits(plain.meet_window_offset, exact.meet_window_offset));
  EXPECT_TRUE(same_bits(plain.min_distance_seen, exact.min_distance_seen));
  EXPECT_TRUE(same_bits(plain.final_distance, exact.final_distance));
  EXPECT_TRUE(same_bits(plain.a_position.x, exact.a_position.x));
  EXPECT_TRUE(same_bits(plain.a_position.y, exact.a_position.y));
  EXPECT_TRUE(same_bits(plain.b_position.x, exact.b_position.x));
  EXPECT_TRUE(same_bits(plain.b_position.y, exact.b_position.y));
}

using Sampler = Instance (*)(agents::SampleRng&, const agents::SamplerRanges&);
constexpr Sampler kSamplers[] = {agents::sample_type1, agents::sample_type2,
                                 agents::sample_type3, agents::sample_type4};

// Starts far enough apart that most runs take hundreds of windows or more;
// the 20k-event budget leaves some of them fuel-exhausted.
constexpr agents::SamplerRanges kFarStarts{.dist_min = 3.0, .dist_max = 8.0};

TEST(WindowCull, SampledRunsMatchExactOnlyBitForBit) {
  EngineConfig config;
  config.max_events = 20'000;
  const support::telemetry::Counter& culled =
      support::telemetry::registry().counter("engine.windows_culled");
  const std::uint64_t culled_before = culled.value();
  for (std::size_t type = 0; type < std::size(kSamplers); ++type) {
    for (std::uint64_t sample = 0; sample < 12; ++sample) {
      agents::SampleRng rng = agents::sample_stream(29, 100 * type + sample);
      const Instance inst = kSamplers[type](rng, kFarStarts);
      SCOPED_TRACE("type " + std::to_string(type + 1) + " sample " + std::to_string(sample));
      expect_same_run(run_algorithm_one(inst, config, false),
                      run_algorithm_one(inst, config, true));
    }
  }
  EXPECT_GT(culled.value(), culled_before);
}

TEST(WindowCull, DistinctRadiiRunsMatchExactOnlyBitForBit) {
  // r_a != r_b: the far-sighted agent freezes at the larger radius while the
  // other keeps moving, the branch the committed scenarios never reach.
  // Either agent takes the larger radius; every meet passes that freeze.
  EngineConfig config;
  config.max_events = 20'000;
  int met = 0;
  for (std::uint64_t sample = 0; sample < 16; ++sample) {
    agents::SampleRng rng = agents::sample_stream(30, sample);
    const Instance inst = kSamplers[sample % 4](rng, kFarStarts);
    for (const double ratio : {0.4, 2.5}) {
      config.r_a = inst.r();
      config.r_b = ratio * inst.r();
      SCOPED_TRACE("sample " + std::to_string(sample) + " r_b/r_a " + std::to_string(ratio));
      const SimResult plain = run_algorithm_one(inst, config, false);
      expect_same_run(plain, run_algorithm_one(inst, config, true));
      if (plain.met) ++met;
    }
  }
  EXPECT_GT(met, 0);
}

// ---------------------------------------------------------------------------
// The unit-vector memo must hand back geom::unit_vector's very bits.

bool same_unit_vector(double heading) {
  const Vec2 expected = geom::unit_vector(heading);
  const Vec2 memoized = memoized_unit_vector(heading);
  return std::bit_cast<std::uint64_t>(memoized.x) == std::bit_cast<std::uint64_t>(expected.x) &&
         std::bit_cast<std::uint64_t>(memoized.y) == std::bit_cast<std::uint64_t>(expected.y);
}

TEST(UnitVectorMemo, RandomHeadingsMatchUnitVector) {
  std::mt19937_64 rng(31337);
  std::uniform_real_distribution<double> angle(-20.0, 20.0);
  std::vector<double> headings(4096);
  for (double& heading : headings) heading = angle(rng);
  for (int pass = 0; pass < 3; ++pass) {  // cold, then hits and evictions
    for (const double heading : headings) EXPECT_TRUE(same_unit_vector(heading)) << heading;
  }
}

TEST(UnitVectorMemo, SpecialHeadingsMatchUnitVector) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 2; ++pass) {
    for (const double heading :
         {0.0, -0.0, nan, -nan, std::bit_cast<double>(0x7ff8000000000123ull), inf, -inf,
          std::numeric_limits<double>::denorm_min(), std::numeric_limits<double>::max(),
          -std::numeric_limits<double>::max(), 1e22, 1e300, -1e300, 0x1p1000 + 0x1p948,
          geom::kPi, geom::kTwoPi, -geom::kPi / 2}) {
      EXPECT_TRUE(same_unit_vector(heading)) << heading;
    }
  }
}

TEST(UnitVectorMemo, HeadingsSharingASlotAlternate) {
  const double first = 0.5;
  const std::size_t slot = detail::unit_vector_memo_slot(std::bit_cast<std::uint64_t>(first));
  double second = first;
  do {
    second = std::nextafter(second, 10.0);
  } while (detail::unit_vector_memo_slot(std::bit_cast<std::uint64_t>(second)) != slot);
  ASSERT_NE(geom::unit_vector(first), geom::unit_vector(second));
  for (int k = 0; k < 100; ++k) {
    EXPECT_TRUE(same_unit_vector(first));
    EXPECT_TRUE(same_unit_vector(second));
  }
}

TEST(UnitVectorMemo, ThreadsDrawInterleavedHeadings) {
  // Each thread owns its memo; four threads walk one heading list in
  // different strides, so every slot is filled and evicted on every thread.
  std::mt19937_64 rng(2718);
  std::uniform_real_distribution<double> angle(0.0, geom::kTwoPi);
  std::vector<double> headings(3000);
  for (double& heading : headings) heading = angle(rng);
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      constexpr std::size_t kStrides[] = {1, 7, 11, 13};  // coprime to 3000: every heading
      const std::size_t stride = kStrides[t];
      for (int pass = 0; pass < 4; ++pass) {
        for (std::size_t k = 0; k < headings.size(); ++k) {
          if (!same_unit_vector(headings[(k * stride + t) % headings.size()])) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace aurv::sim
