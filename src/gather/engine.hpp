// Multi-agent gathering engine — an executable exploration of the paper's
// concluding open problem ("generalize the rendezvous task to gathering
// many agents"), in the restricted model of [38] that the paper's
// Latecomers procedure comes from: n >= 2 anonymous agents whose coordinate
// systems are *shifts* of one another (same compass, chirality, clock rate
// and speed), each with its own starting position and wake-up time, all
// running the same deterministic mobility program.
//
// The two-agent rendezvous rule ("stop forever when you see the other
// agent") has two natural n-agent generalizations, both implemented:
//
//   * StopPolicy::FirstSight — an agent freezes the first time *any* other
//     agent is within the visibility radius r. Clusters then accrete:
//     later agents walk into frozen groups. The group ends with diameter
//     up to (n-1) * r (a chain), so success is parameterized by a target
//     diameter.
//   * StopPolicy::AllVisible — an agent freezes only when *all* n-1 others
//     are within r (agents know n). Equivalently everybody freezes at the
//     first instant the configuration's diameter drops to r. For n = 2
//     both policies coincide with the paper's rendezvous rule.
//
// This engine makes no correctness claim for any particular gathering
// algorithm (we do not have [38]'s GATHER(n) construction); TAB-7 maps
// empirically which configurations our Latecomers gathers under each
// policy. See docs/ARCHITECTURE.md, "Substituted components".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geom/vec2.hpp"
#include "numeric/rational.hpp"
#include "sim/engine.hpp"

namespace aurv::gather {

/// One agent of the restricted model: a starting position (absolute
/// coordinates; the agent's private origin) and a wake-up time.
struct GatherAgent {
  geom::Vec2 start;
  numeric::Rational wake = 0;
};

enum class StopPolicy : std::uint8_t { FirstSight, AllVisible };

[[nodiscard]] std::string to_string(StopPolicy policy);
/// Inverse of to_string ("first-sight" / "all-visible"); throws
/// std::invalid_argument naming the known spellings otherwise.
[[nodiscard]] StopPolicy policy_from_string(const std::string& name);

struct GatherConfig {
  double r = 1.0;                      ///< visibility radius (common)
  StopPolicy policy = StopPolicy::AllVisible;
  /// Success diameter: the run succeeds at the first instant every pairwise
  /// distance is <= success_diameter *and* every agent has stopped.
  /// Defaults to r (the AllVisible natural target); FirstSight chains
  /// typically need (n-1) * r.
  std::optional<double> success_diameter;
  double contact_slack = 1e-9;
  std::uint64_t max_events = 4'000'000;
  std::optional<numeric::Rational> horizon;
};

enum class GatherStop : std::uint8_t {
  Gathered,       ///< all agents stopped within the success diameter
  AllIdleApart,   ///< everyone stopped/exhausted but the diameter is too big
  FuelExhausted,
  HorizonReached,
};

[[nodiscard]] std::string to_string(GatherStop reason);

struct GatherResult {
  bool gathered = false;
  GatherStop reason = GatherStop::FuelExhausted;
  double gather_time = 0.0;            ///< double view of the stop time
  double final_diameter = 0.0;         ///< max pairwise distance at stop
  std::vector<geom::Vec2> positions;   ///< agent positions at stop
  std::vector<bool> frozen;            ///< which agents had stopped
  std::uint64_t events = 0;
  /// Smallest configuration diameter observed at any event boundary
  /// (sampled diagnostic, not a continuous minimum).
  double min_diameter_seen = 0.0;
};

class GatherEngine {
 public:
  /// Requires at least one agent and positive r (checked). A single agent
  /// is trivially gathered (diameter 0) at time 0 under either policy.
  GatherEngine(std::vector<GatherAgent> agents, GatherConfig config);

  /// Runs the common program produced by `factory` on every agent.
  [[nodiscard]] GatherResult run(const sim::AlgorithmFactory& factory) const;

  [[nodiscard]] std::size_t agent_count() const noexcept { return agents_.size(); }

 private:
  std::vector<GatherAgent> agents_;
  GatherConfig config_;
};

/// The policy-natural success diameter when a config does not pin one:
/// AllVisible targets r (everyone mutually visible); FirstSight accretes
/// chains of up to n - 1 hops, so it targets (n - 1) * r plus a small
/// absolute slack absorbing the per-freeze contact round-off. The census
/// driver and the max-gather-time search objective share this default, so
/// "gathered" means the same thing in both pipelines.
[[nodiscard]] double default_success_diameter(StopPolicy policy, std::size_t n, double r);

/// The sufficient "good configuration" condition of [38] specialized to two
/// agents is t > dist - r relative to the earliest agent; this predicate is
/// its natural n-agent analogue (every agent is a late-enough comer w.r.t.
/// the earliest one). TAB-7 tests how predictive it is for our Latecomers
/// under each stop policy.
[[nodiscard]] bool is_funnel_configuration(const std::vector<GatherAgent>& agents, double r);

}  // namespace aurv::gather
