// GatherScenarioSpec — the declarative description of an n-agent gathering
// census: everything needed to reproduce a TAB-7-style sweep of the
// Section 5 open problem as data in a scenarios/gather_census_*.json file
// instead of a hand-rolled C++ loop. Mirrors the two-agent ScenarioSpec
// (strict parsing, exact-rational fields, FNV-1a fingerprint pinned by
// checkpoints) with the gathering model's own vocabulary: a gather sampler
// family draws the configurations, and each configuration runs once per
// configured stop policy.
//
// Schema (see EXPERIMENTS.md for the prose version):
//
//   {
//     "schema": 1,
//     "kind": "gather-census",              // distinguishes from campaigns
//     "name": "gather_census_disk",
//     "description": "optional free text",
//     "algorithm": "latecomers",            // instance-blind entries only:
//                                           // every agent runs the *common*
//                                           // program ("boundary" and
//                                           // "recommended" are rejected)
//     "seed": 2020,
//     "replications": 1,                    // runs per configuration
//     "policies": ["first-sight", "all-visible"],  // optional; default both
//     "source": {
//       "sampler": "disk",                  // exp::gather_sampler_names()
//       "count": 200,
//       "ranges": { "n_min": 3, "n_max": 5, "r_min": 0.5, "r_max": 1.5,
//                   "spread_min": 1.5, "spread_max": 4, "wake_max": 8 }
//     },
//     "engine": {                           // all optional
//       "max_events": 4000000,
//       "contact_slack": 1e-9,
//       "horizon": "4096",                  // exact rational; absent = none
//       "success_diameter": 2.5             // absent = policy-natural
//     }                                     //   default (see
//   }                                       //   gather::default_success_diameter)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "agents/gather_sampler.hpp"
#include "gather/engine.hpp"
#include "numeric/rational.hpp"
#include "support/json.hpp"

namespace aurv::gatherx {

struct GatherScenarioSpec {
  /// The spec's "kind" field and the run kind: metrics snapshots name it,
  /// and the summary and checkpoint kinds extend it.
  static constexpr const char* kKind = "gather-census";

  std::string name;
  std::string description;
  std::string algorithm = "latecomers";
  std::uint64_t seed = 0;
  std::uint64_t replications = 1;

  /// Stop policies each configuration runs under, in spec order (at least
  /// one, no duplicates). Default: both generalizations.
  std::vector<gather::StopPolicy> policies = {gather::StopPolicy::FirstSight,
                                              gather::StopPolicy::AllVisible};

  std::string sampler = "disk";
  std::uint64_t count = 0;
  agents::GatherSamplerRanges ranges;

  /// Success diameter; absent = the policy-natural default per run
  /// (gather::default_success_diameter, which depends on n and r).
  std::optional<double> success_diameter;
  double contact_slack = 1e-9;
  std::uint64_t max_events = 4'000'000;
  std::optional<numeric::Rational> horizon;

  /// count x replications — each job runs once per configured policy.
  [[nodiscard]] std::uint64_t total_jobs() const;

  /// The engine config one run executes under: the spec's knobs plus the
  /// policy-natural success diameter when the spec does not pin one.
  [[nodiscard]] gather::GatherConfig engine_config(gather::StopPolicy policy, std::size_t n,
                                                   double r) const;

  /// Strict parse; throws support::JsonError / std::invalid_argument naming
  /// the offending field. Validates the algorithm (must be instance-blind)
  /// and the gather sampler against the registries at load time.
  [[nodiscard]] static GatherScenarioSpec from_json(const support::Json& json);
  [[nodiscard]] support::Json to_json() const;

  [[nodiscard]] static GatherScenarioSpec load(const std::string& path);

  /// FNV-1a over the canonical serialization; census checkpoints store it
  /// so resuming an edited spec is refused.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

}  // namespace aurv::gatherx
