// ScenarioSpec — the declarative description of a campaign.
//
// A spec names *what* to run (an instance source and an algorithm from the
// registries), *how much* (count x replications), *how* (engine config) and
// *from where* (the seed): everything needed to reproduce a sweep table,
// a census or an impossibility horizon as data in a scenarios/*.json file
// instead of a hand-rolled C++ loop. Parsing is strict — unknown keys are
// rejected so a typo'd field fails loudly instead of silently running a
// different experiment.
//
// Schema (see EXPERIMENTS.md for the prose version):
//
//   {
//     "schema": 1,
//     "name": "type1_census",
//     "description": "optional free text",
//     "algorithm": "aurv",                  // exp::algorithm_names()
//     "seed": 2020,
//     "replications": 1,                    // runs per instance
//     "source": {                           // exactly one of:
//       "sampler": "type1", "count": 2500,  //   region sampler
//       "ranges": { "r_min": 0.5, ... }     //   (optional overrides)
//     },                                    // or:
//     //  "grid": [ {"r":1,"x":2,"y":0.6,"phi":0,"tau":1,"v":1,"t":"3/2","chi":-1}, ... ]
//     "engine": {                           // all optional
//       "max_events": 4000000,
//       "contact_slack": 1e-9,
//       "horizon": "4096",                  // exact rational; absent = none
//       "r_a": 1.5, "r_b": 0.5              // distinct radii; absent = instance r
//     }
//   }
//
// tau/v/t and horizon accept exact rationals as strings ("3/2") or JSON
// numbers (converted exactly via Rational::from_double).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "agents/instance.hpp"
#include "agents/sampler.hpp"
#include "search/bnb.hpp"
#include "search/box.hpp"
#include "search/objective.hpp"
#include "sim/engine.hpp"
#include "support/json.hpp"

namespace aurv::exp {

struct ScenarioSpec {
  /// The run kind: metrics snapshots name it, and the summary and
  /// checkpoint kinds extend it ("campaign-summary", ...).
  static constexpr const char* kKind = "campaign";

  std::string name;
  std::string description;
  std::string algorithm = "aurv";
  std::uint64_t seed = 0;
  std::uint64_t replications = 1;

  /// Sampler mode when non-empty (then `count` instances are drawn);
  /// otherwise `grid` holds the explicit instances.
  std::string sampler;
  std::uint64_t count = 0;
  agents::SamplerRanges ranges;
  std::vector<agents::Instance> grid;

  sim::EngineConfig engine;

  /// count (or grid size) x replications.
  [[nodiscard]] std::uint64_t total_jobs() const;
  [[nodiscard]] std::uint64_t instance_count() const {
    return sampler.empty() ? grid.size() : count;
  }

  /// Strict parse; throws support::JsonError / std::invalid_argument with a
  /// message naming the offending field. Validates the algorithm and
  /// sampler names against the registries.
  [[nodiscard]] static ScenarioSpec from_json(const support::Json& json);
  [[nodiscard]] support::Json to_json() const;

  [[nodiscard]] static ScenarioSpec load(const std::string& path);
  void save(const std::string& path) const;

  /// FNV-1a over the canonical serialization — checkpoints store it so a
  /// resume against an edited spec is refused instead of merging apples
  /// into oranges.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// SearchSpec — the declarative description of a worst-case search: a
/// branch-and-bound over a parameter box of the adversary's instance space
/// (src/search/), as data in a scenarios/search_*.json file.
///
/// Schema (see EXPERIMENTS.md for the prose version):
///
///   {
///     "schema": 1,
///     "kind": "search",                     // distinguishes from campaigns
///     "name": "s2_near_miss",
///     "description": "optional free text",
///     "algorithm": "aurv",                  // exp::algorithm_names()
///     "objective": "near-miss",             // search::objective_names()
///     "space": {
///       "family": "boundary-s2",            // tuple | boundary-s1 | boundary-s2
///       // "chi": -1,                       // tuple family only; boundary
///       //                                  // families pin it (field rejected)
///       "fixed": { "r": 1, "t": 2 },        // pinned params (exact rationals)
///       "box": { "half_phi": [0, "157/100"] }  // searched dims -> [lo, hi]
///     },
///     "budget": {                           // all optional
///       "max_boxes": 512,                   // evaluation budget
///       "wave_size": 16,                    // boxes per deterministic wave
///       "min_width": "1/1024",              // leaf resolution
///       "min_improvement": 0                // pruning margin
///     },
///     "engine": { "horizon": "256", ... }   // same block as campaign specs
///   }
///
/// Box dimension order is the order of the "box" object's keys; every
/// rational field accepts "a/b" strings or JSON numbers (exact via
/// Rational::from_double). Parsing is strict: unknown keys, unknown
/// objective/algorithm/family names and ill-formed spaces are load-time
/// errors — including objective-space constraint violations (surfaced by
/// constructing the objective once at load).
struct SearchSpec {
  /// The spec's "kind" field and the run kind metrics snapshots name.
  static constexpr const char* kKind = "search";

  std::string name;
  std::string description;
  std::string algorithm = "aurv";
  std::string objective = "max-meet-time";

  search::SearchSpace space;
  /// Root intervals, one per space.dim_names entry (same order).
  std::vector<search::Interval> box;
  search::BnbLimits limits;

  sim::EngineConfig engine;

  /// The root of the canonical refinement tree.
  [[nodiscard]] search::ParamBox root_box() const { return search::ParamBox(box); }

  /// Strict parse; throws support::JsonError / std::invalid_argument naming
  /// the offending field.
  [[nodiscard]] static SearchSpec from_json(const support::Json& json);
  [[nodiscard]] support::Json to_json() const;

  [[nodiscard]] static SearchSpec load(const std::string& path);
  void save(const std::string& path) const;

  /// FNV-1a over the canonical serialization; search checkpoints store it
  /// so resuming an edited spec is refused.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// The algorithm resolver a SearchSpec's objective drives: instance-aware
/// (registry resolver) for the two-agent families, instance-blind for
/// gather-tuple — gathering runs one *common* program on every agent, so
/// instance-dispatching entries ("boundary", "recommended") are rejected
/// via resolve_common_algorithm. Throws std::invalid_argument accordingly.
[[nodiscard]] search::AlgorithmResolverFn search_algorithm_resolver(const SearchSpec& spec);

}  // namespace aurv::exp
