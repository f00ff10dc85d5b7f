// Tests for the structured instance samplers (every sample must land in its
// advertised region of the Theorem 3.1 characterization) and for the
// alternative SpiralSearch procedure (coverage, return-to-start, duration,
// and the CGKK-contract equivalence with PlanarCowWalk).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "agents/sampler.hpp"
#include "algo/cow_walk.hpp"
#include "algo/spiral.hpp"
#include "core/feasibility.hpp"
#include "geom/angle.hpp"
#include "program/combinators.hpp"
#include "sim/engine.hpp"

namespace aurv {
namespace {

using agents::Instance;
using core::InstanceKind;
using geom::Vec2;

TEST(Sampler, EverySampleLandsInItsRegion) {
  agents::SampleRng rng(2026);
  const struct {
    Instance (*sample)(agents::SampleRng&, const agents::SamplerRanges&);
    InstanceKind expected;
  } samplers[] = {
      {agents::sample_type1, InstanceKind::Type1},
      {agents::sample_type2, InstanceKind::Type2},
      {agents::sample_type3, InstanceKind::Type3},
      {agents::sample_type4, InstanceKind::Type4},
      {agents::sample_boundary_s1, InstanceKind::BoundaryS1},
      {agents::sample_boundary_s2, InstanceKind::BoundaryS2},
      {agents::sample_infeasible, InstanceKind::Infeasible},
  };
  for (const auto& sampler : samplers) {
    for (int k = 0; k < 300; ++k) {
      const Instance instance = sampler.sample(rng, {});
      EXPECT_EQ(core::classify(instance).kind, sampler.expected)
          << instance.to_string() << " (draw " << k << ")";
    }
  }
}

TEST(Sampler, SamplesAreDeterministicGivenSeed) {
  agents::SampleRng a(7);
  agents::SampleRng b(7);
  for (int k = 0; k < 20; ++k) {
    EXPECT_EQ(agents::sample_type3(a, {}).to_string(),
              agents::sample_type3(b, {}).to_string());
  }
}

TEST(SpiralSearch, ReturnsToStart) {
  for (std::uint32_t i = 1; i <= 4; ++i) {
    std::vector<program::Instruction> path;
    for (const program::Instruction& instruction : algo::spiral_search(i)) {
      path.push_back(instruction);
    }
    EXPECT_NEAR(program::net_displacement(path).norm(), 0.0, 1e-9) << i;
    EXPECT_EQ(program::total_duration(path), algo::spiral_search_duration(i)) << i;
  }
  EXPECT_THROW((void)algo::spiral_search(0), std::logic_error);
  EXPECT_THROW((void)algo::spiral_search(algo::kMaxSpiralIndex + 1), std::logic_error);
}

TEST(SpiralSearch, CoversTargetSquareAtPitchResolution) {
  // Every grid point of [-2^i, 2^i]^2 at pitch 1/2^i must be within one
  // pitch of the traced path.
  const std::uint32_t i = 2;
  const double pitch = std::ldexp(1.0, -static_cast<int>(i));
  // Trace the polyline.
  std::vector<Vec2> waypoints{Vec2{0, 0}};
  Vec2 at{};
  for (const program::Instruction& instruction : algo::spiral_search(i)) {
    if (const auto* move = std::get_if<program::Go>(&instruction)) {
      at += move->distance.to_double() * geom::unit_vector(move->heading);
    }
    waypoints.push_back(at);
  }
  const auto distance_to_path = [&](Vec2 p) {
    double best = 1e300;
    for (std::size_t k = 1; k < waypoints.size(); ++k) {
      const Vec2 a = waypoints[k - 1];
      const Vec2 b = waypoints[k];
      const Vec2 ab = b - a;
      const double len2 = ab.norm2();
      const double s = len2 > 0 ? std::clamp((p - a).dot(ab) / len2, 0.0, 1.0) : 0.0;
      best = std::min(best, geom::dist(p, a + s * ab));
    }
    return best;
  };
  const double reach = std::ldexp(1.0, static_cast<int>(i));
  for (double x = -reach; x <= reach + 1e-9; x += 4 * pitch) {
    for (double y = -reach; y <= reach + 1e-9; y += 4 * pitch) {
      EXPECT_LE(distance_to_path({x, y}), pitch + 1e-9) << x << "," << y;
    }
  }
}

TEST(SpiralSearch, ShorterThanPlanarCowWalk) {
  // The design-choice trade-off TAB-8 quantifies: the spiral covers the
  // same square in a fraction of the cow walk's duration.
  for (std::uint32_t i = 2; i <= 4; ++i) {
    const numeric::Rational spiral = algo::spiral_search_duration(i);
    const numeric::Rational walk = algo::planar_cow_walk_duration(i);
    EXPECT_LT(spiral, walk) << i;
    // At least 2x shorter on these phases (empirically ~3.5-4x).
    EXPECT_LT(spiral * numeric::Rational(2), walk) << i;
  }
}

TEST(SpiralSearch, CgkkSpiralSatisfiesTheLockStepContract) {
  // Same t=0, tau=1 contract as the cow-walk CGKK (the fixed-point argument
  // is search-agnostic): the spiral variant must also meet.
  const Instance rotated = Instance::synchronous(0.8, Vec2{2.0, 0.0}, geom::kPi / 2, 0, 1);
  const Instance scaled(0.8, Vec2{1.5, 0.0}, 0.0, 1, 2, 0, 1);
  for (const Instance& instance : {rotated, scaled}) {
    sim::EngineConfig config;
    config.max_events = 2'000'000;
    const sim::SimResult result =
        sim::Engine(instance, config).run([] { return algo::cgkk_spiral(); });
    EXPECT_TRUE(result.met) << instance.to_string()
                            << " min dist " << result.min_distance_seen;
  }
}

}  // namespace
}  // namespace aurv
