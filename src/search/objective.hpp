// Pluggable search objectives — the quantities the branch-and-bound hunts
// for on the adversary's side of the paper, each tied to the theorem it
// probes:
//
//   max-meet-time      Theorem 3.2's cost side: the instance in the box on
//                      which the chosen algorithm takes *longest* to meet.
//                      Boxes whose instances are provably infeasible under
//                      the Theorem 3.1 characterization (interval slack
//                      entirely below the boundary) can never meet and are
//                      pruned outright; the engine horizon caps the score
//                      of everything else.
//
//   near-miss          Theorem 4.1 / Claim 4.1: on the S1/S2 boundary
//                      manifolds, rendezvous requires a trajectory segment
//                      aimed *exactly* right, so a fixed algorithm misses
//                      almost everywhere — but by how little? The score is
//                      r - min_distance_seen (minus the clearance to
//                      rendezvous), so maximizing it finds the
//                      configuration where the algorithm comes closest to
//                      defeating the adversary. Bounded by max(r) over the
//                      box, since distances are nonnegative.
//
//   boundary-distance  Theorem 3.1's knife edge: minimize the analytic
//                      |t - (dist - r)| (S1 side) or |t - (distproj - r)|
//                      (S2 side) — how close a box can sit to the
//                      feasibility boundary. The bound is interval
//                      arithmetic on the same expression, which prunes
//                      boxes provably far from the boundary without a
//                      single simulation.
//
//   max-gather-time    Section 5's open problem, cost side: the n-agent
//                      staggered-chain configuration (gather-tuple family)
//                      on which the common program takes longest to gather.
//                      The prune is the shifted-frames reachability bound:
//                      two agents running one program T at unit speed keep
//                      |gap| >= dist - |wake difference| as long as neither
//                      has frozen, so a box whose chain provably cannot
//                      shrink below the success diameter (under either
//                      reachable stop policy) scores -infinity without a
//                      single simulation.
//
// Every objective evaluates a parameter point by mapping it to an instance
// (SearchSpace below) and running the simulation engine as the oracle; the
// box-level bound must only *over*-estimate the best achievable score, and
// must be cheap — it runs once per open box.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "agents/gather_sampler.hpp"
#include "agents/instance.hpp"
#include "gather/engine.hpp"
#include "search/box.hpp"
#include "sim/engine.hpp"
#include "support/json.hpp"

namespace aurv::search {

/// Maps a search-space point (one rational per searched dimension) to the
/// instance it denotes. Four parameterizations ("families"):
///
///   tuple        dimensions are instance-tuple fields directly; any of
///                {r, x, y, phi, tau, v, t, r_a, r_b} may be searched or
///                fixed (defaults r=1, x=2, y=0, phi=0, tau=1, v=1, t=0;
///                r_a/r_b default to "inherit" — the engine config's
///                override if set, else the instance r), and chi is fixed
///                per spec. Searching r_a/r_b opens the Section 5
///                distinct-radii axis; the feasibility prune then uses
///                min(r_a, r_b).
///   boundary-s1  the S1 exception manifold: dimensions {theta, r, t};
///                B starts at (t + r) * unit(theta), phi = 0, chi = +1,
///                synchronous — every point satisfies t = dist - r.
///   boundary-s2  the S2 manifold of Theorem 4.1: dimensions
///                {half_phi, lateral, r, t}; B starts at
///                (t + r) * unit(half_phi) + lateral * unit(half_phi)^perp,
///                phi = 2 * half_phi, chi = -1, synchronous — every point
///                satisfies t = dist(projA, projB) - r, exactly the
///                construction of core::construct_s2_counterexample.
///   gather-tuple n-agent gathering chains (Section 5 open problem):
///                dimensions {n, r, spread, delay, policy} with defaults
///                n=3, r=1, spread=2, delay=2, policy=1. A point denotes
///                the staggered chain with agent k at (k * spread, 0)
///                waking at k * delay (exact rational wakes) under common
///                visibility radius r; n is the integer part of the n
///                coordinate clamped to [1, 64], and policy < 1/2 means
///                FirstSight, >= 1/2 AllVisible. Points map to
///                agents::GatherInstance via gather_instance_at — the
///                two-agent instance_at throws for this family.
class SearchSpace {
 public:
  enum class Family : std::uint8_t { Tuple, BoundaryS1, BoundaryS2, GatherTuple };

  /// Agent-count cap of the gather-tuple family (keeps a searched n
  /// dimension from denoting quadratic-cost monsters).
  static constexpr long long kMaxGatherAgents = 64;

  Family family = Family::Tuple;
  int chi = +1;  ///< tuple family only; boundary families pin it

  /// Searched dimension names, in box-dimension order. Must be parameters
  /// of the family, without duplicates (validated by validate()).
  std::vector<std::string> dim_names;
  /// Fixed values for non-searched parameters (exact rationals).
  std::vector<std::pair<std::string, numeric::Rational>> fixed;

  [[nodiscard]] static std::string to_string(Family family);
  [[nodiscard]] static Family family_from_string(const std::string& name);

  /// Throws std::invalid_argument on unknown/duplicate/overlapping names or
  /// chi outside {+1, -1}.
  void validate() const;

  /// The value of parameter `name` at `point`: the searched coordinate if
  /// `name` is a dimension, the fixed override otherwise, the family
  /// default else.
  [[nodiscard]] numeric::Rational param(const std::string& name,
                                        const std::vector<numeric::Rational>& point) const;

  /// Interval of parameter `name` over `box` (a point interval for fixed
  /// parameters) — the raw material of objective bounds.
  [[nodiscard]] Interval param_interval(const std::string& name, const ParamBox& box) const;

  /// True when `name` is given a value by this space (searched dimension
  /// or fixed override) rather than falling back to the family default —
  /// how the tuple family distinguishes "r_a searched/pinned here" from
  /// "r_a inherited from the engine config".
  [[nodiscard]] bool specifies(const std::string& name) const;

  /// The two-agent instance denoted by `point`; throws std::logic_error
  /// for the gather-tuple family (use gather_instance_at).
  [[nodiscard]] agents::Instance instance_at(const std::vector<numeric::Rational>& point) const;

  /// The n-agent chain denoted by `point` (gather-tuple family only;
  /// throws std::logic_error otherwise) and its stop policy.
  [[nodiscard]] agents::GatherInstance gather_instance_at(
      const std::vector<numeric::Rational>& point) const;
  [[nodiscard]] gather::StopPolicy gather_policy_at(
      const std::vector<numeric::Rational>& point) const;

  /// True when tau and v are pinned to 1 over the whole space (the
  /// synchronous families the boundary analysis applies to; the
  /// gather-tuple family is synchronous by model definition).
  [[nodiscard]] bool synchronous() const;
};

/// What the oracle observed at one point; `score` is always oriented so the
/// search maximizes it (minimizing objectives negate internally).
struct Evaluation {
  double score = 0.0;
  bool met = false;
  double meet_time = 0.0;
  double min_distance = 0.0;
  /// min_distance - rendezvous radius: positive = the run missed by this
  /// much, ~0 = contact.
  double clearance = 0.0;
  std::uint64_t events = 0;
  std::string stop_reason;
  std::string instance;  ///< instance.to_string() of the evaluated point

  /// Deterministic record used by incumbent logs and the certificate.
  [[nodiscard]] support::Json to_json() const;
  [[nodiscard]] static Evaluation from_json(const support::Json& json);
};

/// A search objective: point oracle + box bound. Implementations must be
/// deterministic and safe to call concurrently (the wave executor evaluates
/// several boxes in parallel).
class Objective {
 public:
  virtual ~Objective() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Simulates the instance at `point` and scores it.
  [[nodiscard]] virtual Evaluation evaluate(
      const std::vector<numeric::Rational>& point) const = 0;
  /// Upper bound on the score anywhere in `box`; +infinity is legal (never
  /// prunes), -infinity marks a box provably devoid of scoring points.
  [[nodiscard]] virtual double bound(const ParamBox& box) const = 0;
  /// Identity of the search this objective defines. Fingerprint-free
  /// checkpoints pin this JSON, so every construction parameter that
  /// changes scores, bounds, or the point-to-instance mapping must appear
  /// here — a resumed search with a different descriptor is refused.
  [[nodiscard]] virtual support::Json descriptor() const = 0;
};

/// Instance-aware algorithm resolution, shape-compatible with
/// exp::AlgorithmResolver (redeclared here so search/ stays independent of
/// the experiment layer).
using AlgorithmResolverFn = std::function<sim::AlgorithmFactory(const agents::Instance&)>;

/// Registered objective names, in presentation order.
[[nodiscard]] const std::vector<std::string>& objective_names();

/// Builds the named objective over `space`, driving `algorithm` through the
/// engine `config` as its oracle. Throws std::invalid_argument listing the
/// known names on a miss, and for family/objective mismatches: the
/// gather-tuple family pairs only with max-gather-time (and vice versa).
/// Gather searches run one *common* program on every agent — the resolver
/// is probed once with a fixed instance, so callers must pass an
/// instance-blind resolver (exp::resolve_common_algorithm enforces this at
/// the spec layer) — and reject engine r_a/r_b overrides (the model has one
/// common radius).
[[nodiscard]] std::unique_ptr<Objective> make_objective(const std::string& name,
                                                        SearchSpace space,
                                                        AlgorithmResolverFn algorithm,
                                                        sim::EngineConfig config);

}  // namespace aurv::search
