// Instruction-level conformance of AlmostUniversalRV against the paper's
// pseudocode: phase 1 of Algorithm 1 hand-transcribed from Algorithms 1-3
// and compared to the generated stream, plus a sampler-driven randomized
// end-to-end sweep of Theorem 3.2.
#include <gtest/gtest.h>

#include <vector>

#include "agents/sampler.hpp"
#include "algo/cow_walk.hpp"
#include "algo/latecomers.hpp"
#include "core/almost_universal.hpp"
#include "core/feasibility.hpp"
#include "geom/angle.hpp"
#include "program/combinators.hpp"
#include "sim/batch.hpp"

namespace aurv::core {
namespace {

using numeric::Rational;
using program::Instruction;

// Phase 1 of Algorithm 1, transcribed by hand from the paper:
//   block 1 (lines 5-7):  for j = 1..4: PlanarCowWalk(1) in Rot(j*pi/2)
//   block 2 (lines 9-12): wait(2); Latecomers for time 2; backtrack
//   block 3 (lines 14-15): wait(2^15); PlanarCowWalk(1)
//   block 4 (lines 17-20): CGKK solo prefix of time 2 cut into 4 segments
//                          of 1/2, each + wait(2); backtrack
std::vector<Instruction> hand_phase1() {
  using program::go;
  using program::go_east;
  using program::go_north;
  using program::go_south;
  using program::go_west;
  using program::wait;
  std::vector<Instruction> expected;

  // PlanarCowWalk(1) from Algorithm 2: LCW(1); 4x {N 1/2; LCW(1)}; S 2;
  // 4x {S 1/2; LCW(1)}; N 2 — where LCW(1) = E 2, W 4, E 2 (Algorithm 3).
  const auto emit_pcw1 = [&expected](double alpha) {
    const auto lcw = [&expected, alpha] {
      expected.push_back(go(program::kEast + alpha, 2));
      expected.push_back(go(program::kWest + alpha, 4));
      expected.push_back(go(program::kEast + alpha, 2));
    };
    lcw();
    for (int k = 0; k < 4; ++k) {
      expected.push_back(go(program::kNorth + alpha, Rational::dyadic(1, 1)));
      lcw();
    }
    expected.push_back(go(program::kSouth + alpha, 2));
    for (int k = 0; k < 4; ++k) {
      expected.push_back(go(program::kSouth + alpha, Rational::dyadic(1, 1)));
      lcw();
    }
    expected.push_back(go(program::kNorth + alpha, 2));
  };

  // Block 1: j = 1..2^(i+1) = 4, Rot(j*pi/2).
  for (int j = 1; j <= 4; ++j) emit_pcw1(geom::dyadic_angle(j, 1));

  // Block 2: wait 2^1; Latecomers during time 2 — its first trip is
  // go(0, 2) (phase-1 trip reach 2^1 = 2), of which exactly the outbound
  // fits the budget; then backtrack.
  expected.push_back(wait(2));
  expected.push_back(go(0.0, 2));
  expected.push_back(go(0.0 + geom::kPi, 2));

  // Block 3: wait 2^15; PlanarCowWalk(1) unrotated.
  expected.push_back(wait(Rational::pow2(15)));
  emit_pcw1(0.0);

  // Block 4: the CGKK solo prefix of time 2 is the start of
  // PlanarCowWalk(1): E 2 — cut into 4 segments of 1/2 each + wait(2);
  // then backtrack (W 2 in one move... backtrack reverses each piece).
  for (int k = 0; k < 4; ++k) {
    expected.push_back(go(program::kEast, Rational::dyadic(1, 1)));
    expected.push_back(wait(2));
  }
  for (int k = 0; k < 4; ++k) {
    expected.push_back(go(program::kEast + geom::kPi, Rational::dyadic(1, 1)));
  }
  return expected;
}

TEST(AurvConformance, Phase1MatchesHandTranscription) {
  const std::vector<Instruction> expected = hand_phase1();
  program::Program stream = almost_universal_rv();
  for (std::size_t k = 0; k < expected.size(); ++k) {
    ASSERT_TRUE(stream.next()) << "stream ended early at " << k;
    const Instruction& actual = stream.value();
    // Compare kind, duration/distance exactly, heading to 1e-12.
    ASSERT_EQ(program::is_move(actual), program::is_move(expected[k])) << k;
    EXPECT_EQ(program::duration_of(actual), program::duration_of(expected[k])) << k;
    if (program::is_move(actual)) {
      EXPECT_NEAR(std::get<program::Go>(actual).heading,
                  std::get<program::Go>(expected[k]).heading, 1e-12)
          << k << ": " << program::to_string(actual) << " vs "
          << program::to_string(expected[k]);
    }
  }
  // Phase 2 starts right after, with PlanarCowWalk(2) in Rot(pi/4): its
  // first instruction is go East (in that frame) 2.
  ASSERT_TRUE(stream.next());
  const auto& first_phase2 = std::get<program::Go>(stream.value());
  EXPECT_NEAR(first_phase2.heading, geom::dyadic_angle(1, 2), 1e-12);
  EXPECT_EQ(first_phase2.distance, Rational(2));
}

TEST(AurvConformance, RandomizedTheorem32Sweep) {
  // 20 sampler-drawn instances per covered type, all simulated in parallel:
  // Theorem 3.2 demands every one of them meets.
  agents::SampleRng rng(424242);
  std::vector<agents::Instance> instances;
  for (int k = 0; k < 20; ++k) instances.push_back(agents::sample_type1(rng));
  for (int k = 0; k < 20; ++k) instances.push_back(agents::sample_type2(rng));
  for (int k = 0; k < 20; ++k) instances.push_back(agents::sample_type3(rng));
  for (int k = 0; k < 20; ++k) instances.push_back(agents::sample_type4(rng));

  sim::EngineConfig config;
  config.max_events = 30'000'000;
  const std::vector<sim::SimResult> results =
      sim::run_sweep(instances, [] { return almost_universal_rv(); }, config);
  for (std::size_t k = 0; k < instances.size(); ++k) {
    EXPECT_TRUE(results[k].met)
        << instances[k].to_string() << " -> " << sim::to_string(results[k].reason)
        << " min dist " << results[k].min_distance_seen;
    if (results[k].met) {
      EXPECT_LE(results[k].final_distance, instances[k].r() + 1e-6);
    }
  }
}

TEST(AurvConformance, RandomizedBoundarySweep) {
  // Sampler-drawn S1/S2 instances: the dedicated algorithms meet at
  // distance exactly r on every draw.
  agents::SampleRng rng(515151);
  std::vector<sim::BatchJob> jobs;
  for (int k = 0; k < 15; ++k) {
    const agents::Instance s1 = agents::sample_boundary_s1(rng);
    jobs.push_back({s1, recommended_algorithm(s1), {}});
    const agents::Instance s2 = agents::sample_boundary_s2(rng);
    jobs.push_back({s2, recommended_algorithm(s2), {}});
  }
  std::vector<double> radii;
  for (const sim::BatchJob& job : jobs) radii.push_back(job.instance.r());
  const std::vector<sim::SimResult> results = sim::run_batch(std::move(jobs));
  for (std::size_t k = 0; k < results.size(); ++k) {
    EXPECT_TRUE(results[k].met) << k;
    EXPECT_NEAR(results[k].final_distance, radii[k], 1e-5) << k;
  }
}

}  // namespace
}  // namespace aurv::core
