#include "agents/gather_sampler.hpp"

#include <algorithm>
#include <random>
#include <sstream>

#include "geom/angle.hpp"
#include "support/check.hpp"

namespace aurv::agents {

namespace {

using gather::GatherAgent;
using numeric::Rational;

double uniform(SampleRng& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

/// A random exact rational in [lo, hi], quantized to 1/64 — same grid as the
/// two-agent samplers, so wake-up delays stay cheap exact dyadics.
Rational rational_in(SampleRng& rng, double lo, double hi) {
  const auto lo64 = static_cast<long long>(lo * 64.0);
  const auto hi64 = static_cast<long long>(hi * 64.0);
  AURV_CHECK_MSG(lo64 <= hi64, "gather rational_in: empty range");
  std::uniform_int_distribution<long long> dist(lo64, hi64);
  return Rational::dyadic(dist(rng), 6);
}

std::uint32_t draw_n(SampleRng& rng, const GatherSamplerRanges& ranges) {
  const std::uint32_t lo = std::max<std::uint32_t>(1, ranges.n_min);
  const std::uint32_t hi = std::max(lo, ranges.n_max);
  return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
}

/// The earliest agent wakes at 0 by the model convention (agent A of the
/// two-agent tuple is the first-woken one); shift all wakes accordingly.
void rebase_wakes(std::vector<GatherAgent>& agents) {
  Rational earliest = agents.front().wake;
  for (const GatherAgent& agent : agents) earliest = std::min(earliest, agent.wake);
  for (GatherAgent& agent : agents) agent.wake -= earliest;
}

}  // namespace

std::string GatherInstance::to_string() const {
  std::ostringstream os;
  os << "Gather(r=" << r << ", n=" << agents.size() << ", agents=[";
  for (std::size_t k = 0; k < agents.size(); ++k) {
    if (k != 0) os << ", ";
    os << "(" << agents[k].start.x << ", " << agents[k].start.y << ")@"
       << agents[k].wake.to_string();
  }
  os << "])";
  return os.str();
}

GatherInstance sample_gather_disk(SampleRng& rng, const GatherSamplerRanges& ranges) {
  GatherInstance instance;
  instance.r = uniform(rng, ranges.r_min, ranges.r_max);
  const double radius = uniform(rng, ranges.spread_min, ranges.spread_max);
  const std::uint32_t n = draw_n(rng, ranges);
  for (std::uint32_t k = 0; k < n; ++k) {
    // Uniform in the disk: rejection-free via sqrt-radius.
    const double rho = radius * std::sqrt(uniform(rng, 0.0, 1.0));
    const double theta = uniform(rng, 0.0, geom::kTwoPi);
    instance.agents.push_back(
        {rho * geom::unit_vector(theta), rational_in(rng, 0.0, ranges.wake_max)});
  }
  rebase_wakes(instance.agents);
  return instance;
}

GatherInstance sample_gather_cluster(SampleRng& rng, const GatherSamplerRanges& ranges) {
  GatherInstance instance;
  instance.r = uniform(rng, ranges.r_min, ranges.r_max);
  const double separation = uniform(rng, ranges.spread_min, ranges.spread_max);
  const std::uint32_t n = draw_n(rng, ranges);
  // Two tight clusters `separation` apart; membership alternates so both
  // clusters are populated for every n >= 2.
  const geom::Vec2 centers[2] = {{0.0, 0.0}, {separation, 0.0}};
  const double jitter = 0.25 * instance.r;
  for (std::uint32_t k = 0; k < n; ++k) {
    const geom::Vec2 offset{uniform(rng, -jitter, jitter), uniform(rng, -jitter, jitter)};
    instance.agents.push_back(
        {centers[k % 2] + offset, rational_in(rng, 0.0, ranges.wake_max)});
  }
  rebase_wakes(instance.agents);
  return instance;
}

GatherInstance sample_gather_ring(SampleRng& rng, const GatherSamplerRanges& ranges) {
  GatherInstance instance;
  instance.r = uniform(rng, ranges.r_min, ranges.r_max);
  const double radius = uniform(rng, ranges.spread_min, ranges.spread_max);
  const std::uint32_t n = draw_n(rng, ranges);
  const double base = uniform(rng, 0.0, geom::kTwoPi);
  for (std::uint32_t k = 0; k < n; ++k) {
    // Even spacing plus up to a quarter-slot of angular jitter: symmetric
    // but never *exactly* symmetric, so equal-wake degeneracies come from
    // the wake draw, not the geometry.
    const double slot = geom::kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    const double theta = base + slot + uniform(rng, -0.25, 0.25) * geom::kTwoPi /
                                           (4.0 * static_cast<double>(n));
    instance.agents.push_back(
        {radius * geom::unit_vector(theta), rational_in(rng, 0.0, ranges.wake_max)});
  }
  rebase_wakes(instance.agents);
  return instance;
}

GatherInstance sample_gather_spread(SampleRng& rng, const GatherSamplerRanges& ranges) {
  GatherInstance instance;
  instance.r = uniform(rng, ranges.r_min, ranges.r_max);
  const double spacing = uniform(rng, ranges.spread_min, ranges.spread_max);
  const std::uint32_t n = draw_n(rng, ranges);
  // Colinear chain with the earliest agent at the origin; agent k sits
  // k * spacing away with a small lateral wobble, and its wake delay is
  // drawn in a band *straddling* the funnel boundary delay = dist - r, so
  // roughly half the draws violate the [38] good-configuration condition.
  instance.agents.push_back({geom::Vec2{0.0, 0.0}, Rational(0)});
  for (std::uint32_t k = 1; k < n; ++k) {
    const geom::Vec2 start{static_cast<double>(k) * spacing, uniform(rng, -0.3, 0.3)};
    const double boundary = std::max(0.0, geom::dist(start, {0.0, 0.0}) - instance.r);
    const double band = std::max(1.0, 0.5 * boundary);
    instance.agents.push_back(
        {start, rational_in(rng, std::max(0.0, boundary - band), boundary + band)});
  }
  return instance;
}

}  // namespace aurv::agents
