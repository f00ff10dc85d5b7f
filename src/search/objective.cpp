#include "search/objective.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/feasibility.hpp"
#include "geom/angle.hpp"
#include "numeric/interval.hpp"
#include "support/check.hpp"

namespace aurv::search {

using numeric::FInterval;
using numeric::Rational;
using support::Json;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Outward slop for the *transcendental* legs of a bound (hypot, cos, sin)
/// and for core::classify's plain-double slack evaluation, neither of which
/// the outward-rounded FInterval arithmetic can certify. Rational-derived
/// endpoints and the +/- combining them need no slop — FInterval rounds
/// those outward by construction. The absolute floor covers tiny
/// magnitudes; the relative term keeps the margin conservative at large
/// coordinates where a fixed absolute slop would be overtaken by round-off.
constexpr double kBoundSlop = 1e-9;
constexpr double kRelBoundSlop = 1e-12;
double bound_slop(double magnitude) { return kBoundSlop + kRelBoundSlop * std::fabs(magnitude); }

struct ParamDefault {
  const char* name;
  long long num;
  long long den;
};

const std::vector<ParamDefault>& defaults_of(SearchSpace::Family family) {
  // r_a/r_b carry a 0 sentinel: "not specified here" — the effective value
  // then falls back to the engine config override or the instance r
  // (SearchSpace::specifies distinguishes the cases; the defaults below are
  // never fed to the engine).
  static const std::vector<ParamDefault> tuple = {
      {"r", 1, 1}, {"x", 2, 1}, {"y", 0, 1}, {"phi", 0, 1},
      {"tau", 1, 1}, {"v", 1, 1}, {"t", 0, 1}, {"r_a", 0, 1}, {"r_b", 0, 1}};
  static const std::vector<ParamDefault> s1 = {{"theta", 0, 1}, {"r", 1, 1}, {"t", 2, 1}};
  static const std::vector<ParamDefault> s2 = {
      {"half_phi", 0, 1}, {"lateral", 7, 5}, {"r", 1, 1}, {"t", 2, 1}};
  static const std::vector<ParamDefault> gather = {
      {"n", 3, 1}, {"r", 1, 1}, {"spread", 2, 1}, {"delay", 2, 1}, {"policy", 1, 1}};
  switch (family) {
    case SearchSpace::Family::Tuple: return tuple;
    case SearchSpace::Family::BoundaryS1: return s1;
    case SearchSpace::Family::BoundaryS2: return s2;
    case SearchSpace::Family::GatherTuple: return gather;
  }
  throw std::logic_error("SearchSpace: unknown family");
}

/// Sound double enclosure of an exact rational interval: each endpoint is
/// outward-rounded by FInterval::enclose, so the hull contains every value
/// of [lo, hi] with no ad-hoc slop.
FInterval view(const Interval& interval) {
  return hull(FInterval::enclose(interval.lo), FInterval::enclose(interval.hi));
}

}  // namespace

// ------------------------------------------------------------ SearchSpace --

std::string SearchSpace::to_string(Family family) {
  switch (family) {
    case Family::Tuple: return "tuple";
    case Family::BoundaryS1: return "boundary-s1";
    case Family::BoundaryS2: return "boundary-s2";
    case Family::GatherTuple: return "gather-tuple";
  }
  throw std::logic_error("SearchSpace: unknown family");
}

SearchSpace::Family SearchSpace::family_from_string(const std::string& name) {
  if (name == "tuple") return Family::Tuple;
  if (name == "boundary-s1") return Family::BoundaryS1;
  if (name == "boundary-s2") return Family::BoundaryS2;
  if (name == "gather-tuple") return Family::GatherTuple;
  throw std::invalid_argument("search space: unknown family \"" + name +
                              "\"; known: tuple, boundary-s1, boundary-s2, gather-tuple");
}

void SearchSpace::validate() const {
  if (chi != 1 && chi != -1)
    throw std::invalid_argument("search space: chi must be +1 or -1");
  if (dim_names.empty())
    throw std::invalid_argument("search space: at least one searched dimension required");
  const std::vector<ParamDefault>& legal = defaults_of(family);
  const auto known = [&](const std::string& name) {
    return std::any_of(legal.begin(), legal.end(),
                       [&](const ParamDefault& entry) { return name == entry.name; });
  };
  for (std::size_t k = 0; k < dim_names.size(); ++k) {
    if (!known(dim_names[k]))
      throw std::invalid_argument("search space: unknown dimension \"" + dim_names[k] +
                                  "\" for family " + to_string(family));
    for (std::size_t j = k + 1; j < dim_names.size(); ++j)
      if (dim_names[k] == dim_names[j])
        throw std::invalid_argument("search space: duplicate dimension \"" + dim_names[k] +
                                    "\"");
  }
  for (const auto& [name, value] : fixed) {
    (void)value;
    if (!known(name))
      throw std::invalid_argument("search space: unknown fixed parameter \"" + name +
                                  "\" for family " + to_string(family));
    if (std::find(dim_names.begin(), dim_names.end(), name) != dim_names.end())
      throw std::invalid_argument("search space: \"" + name +
                                  "\" is both searched and fixed");
  }
}

Rational SearchSpace::param(const std::string& name,
                            const std::vector<Rational>& point) const {
  const auto dim = std::find(dim_names.begin(), dim_names.end(), name);
  if (dim != dim_names.end()) {
    const auto index = static_cast<std::size_t>(dim - dim_names.begin());
    AURV_CHECK_MSG(index < point.size(), "SearchSpace::param: point/dimension mismatch");
    return point[index];
  }
  for (const auto& [fixed_name, value] : fixed)
    if (fixed_name == name) return value;
  for (const ParamDefault& entry : defaults_of(family))
    if (name == entry.name) return Rational(numeric::BigInt(entry.num), numeric::BigInt(entry.den));
  throw std::invalid_argument("search space: no such parameter \"" + name + "\"");
}

bool SearchSpace::specifies(const std::string& name) const {
  if (std::find(dim_names.begin(), dim_names.end(), name) != dim_names.end()) return true;
  for (const auto& [fixed_name, value] : fixed) {
    (void)value;
    if (fixed_name == name) return true;
  }
  return false;
}

Interval SearchSpace::param_interval(const std::string& name, const ParamBox& box) const {
  const auto dim = std::find(dim_names.begin(), dim_names.end(), name);
  if (dim != dim_names.end()) {
    const auto index = static_cast<std::size_t>(dim - dim_names.begin());
    AURV_CHECK_MSG(index < box.dim_count(), "SearchSpace::param_interval: box/dimension mismatch");
    return box.dim(index);
  }
  const Rational value = param(name, {});
  return Interval{value, value};
}

namespace {

/// The integer denoted by a gather-tuple n coordinate: its floor, clamped
/// to [1, kMaxGatherAgents]. Exact despite the double hint — the hint is
/// corrected with rational comparisons, so a coordinate sitting on an
/// integer always lands on that integer at any magnitude.
long long gather_agent_count(const Rational& coordinate) {
  long long n = static_cast<long long>(std::floor(coordinate.to_double()));
  n = std::clamp(n, 1ll, SearchSpace::kMaxGatherAgents);
  while (n < SearchSpace::kMaxGatherAgents && Rational(n + 1) <= coordinate) ++n;
  while (n > 1 && Rational(n) > coordinate) --n;
  return n;
}

}  // namespace

agents::GatherInstance SearchSpace::gather_instance_at(const std::vector<Rational>& point) const {
  if (family != Family::GatherTuple)
    throw std::logic_error("SearchSpace: gather_instance_at on a two-agent family");
  agents::GatherInstance instance;
  instance.r = param("r", point).to_double();
  const long long n = gather_agent_count(param("n", point));
  const double spread = param("spread", point).to_double();
  const Rational delay = param("delay", point);
  if (delay.is_negative())
    throw std::invalid_argument(
        "gather-tuple: delay must be nonnegative (wake-up times are nonnegative by model)");
  Rational wake = 0;
  for (long long k = 0; k < n; ++k) {
    instance.agents.push_back(
        {geom::Vec2{static_cast<double>(k) * spread, 0.0}, wake});
    wake += delay;
  }
  return instance;
}

gather::StopPolicy SearchSpace::gather_policy_at(const std::vector<Rational>& point) const {
  if (family != Family::GatherTuple)
    throw std::logic_error("SearchSpace: gather_policy_at on a two-agent family");
  return param("policy", point) < Rational(numeric::BigInt(1), numeric::BigInt(2))
             ? gather::StopPolicy::FirstSight
             : gather::StopPolicy::AllVisible;
}

agents::Instance SearchSpace::instance_at(const std::vector<Rational>& point) const {
  switch (family) {
    case Family::Tuple: {
      const double r = param("r", point).to_double();
      const geom::Vec2 b{param("x", point).to_double(), param("y", point).to_double()};
      const double phi = geom::normalize_angle(param("phi", point).to_double());
      return agents::Instance(r, b, phi, param("tau", point), param("v", point),
                              param("t", point), chi);
    }
    case Family::BoundaryS1: {
      // S1 manifold: t = dist - r by construction (cf. the adversary's
      // construct_s1_counterexample, which picks theta in a direction gap).
      const double r = param("r", point).to_double();
      const Rational t = param("t", point);
      const double theta = param("theta", point).to_double();
      const geom::Vec2 b = (t.to_double() + r) * geom::unit_vector(theta);
      return agents::Instance::synchronous(r, b, /*phi=*/0.0, t, /*chi=*/+1);
    }
    case Family::BoundaryS2: {
      // S2 manifold of Theorem 4.1: t = dist(projA, projB) - r by
      // construction, with the canonical line at inclination half_phi.
      const double r = param("r", point).to_double();
      const Rational t = param("t", point);
      const double half_phi = param("half_phi", point).to_double();
      const double lateral = param("lateral", point).to_double();
      const geom::Vec2 along = geom::unit_vector(half_phi);
      const geom::Vec2 b = (t.to_double() + r) * along + lateral * along.perp();
      const double phi = geom::normalize_angle(2.0 * half_phi);
      return agents::Instance::synchronous(r, b, phi, t, /*chi=*/-1);
    }
    case Family::GatherTuple:
      throw std::logic_error(
          "SearchSpace: instance_at on the gather-tuple family (use gather_instance_at)");
  }
  throw std::logic_error("SearchSpace: unknown family");
}

bool SearchSpace::synchronous() const {
  if (family != Family::Tuple) return true;
  for (const char* name : {"tau", "v"}) {
    if (std::find(dim_names.begin(), dim_names.end(), name) != dim_names.end()) return false;
    if (param(name, {}) != Rational(1)) return false;
  }
  return true;
}

// ------------------------------------------------------------- Evaluation --

Json Evaluation::to_json() const {
  Json json = Json::object();
  json.set("score", Json(score));
  json.set("met", Json(met));
  if (met) json.set("meet_time", Json(meet_time));
  json.set("min_distance", Json(min_distance));
  json.set("clearance", Json(clearance));
  json.set("events", Json(events));
  json.set("reason", Json(stop_reason));
  json.set("instance", Json(instance));
  return json;
}

Evaluation Evaluation::from_json(const Json& json) {
  Evaluation evaluation;
  evaluation.score = json.at("score").as_number();
  evaluation.met = json.at("met").as_bool();
  evaluation.meet_time = json.number_or("meet_time", 0.0);
  evaluation.min_distance = json.at("min_distance").as_number();
  evaluation.clearance = json.at("clearance").as_number();
  evaluation.events = json.at("events").as_uint();
  evaluation.stop_reason = json.at("reason").as_string();
  evaluation.instance = json.at("instance").as_string();
  return evaluation;
}

// -------------------------------------------------------------- objectives --

namespace {

/// Shared oracle plumbing: map point -> instance, simulate, fill the
/// score-independent record fields.
class SimObjective : public Objective {
 public:
  SimObjective(SearchSpace space, AlgorithmResolverFn algorithm, sim::EngineConfig config)
      : space_(std::move(space)), algorithm_(std::move(algorithm)), config_(std::move(config)) {}

  [[nodiscard]] Json descriptor() const override {
    Json space = Json::object();
    space.set("family", Json(SearchSpace::to_string(space_.family)));
    space.set("chi", Json(space_.chi));
    Json dims = Json::array();
    for (const std::string& dim : space_.dim_names) dims.push_back(Json(dim));
    space.set("dims", std::move(dims));
    Json fixed = Json::object();
    for (const auto& [param, value] : space_.fixed) fixed.set(param, Json(value.to_string()));
    space.set("fixed", std::move(fixed));
    Json engine = Json::object();
    engine.set("max_events", Json(config_.max_events));
    engine.set("contact_slack", Json(config_.contact_slack));
    engine.set("horizon", config_.horizon ? Json(config_.horizon->to_string()) : Json());
    engine.set("r_a", config_.r_a ? Json(*config_.r_a) : Json());
    engine.set("r_b", config_.r_b ? Json(*config_.r_b) : Json());
    Json json = Json::object();
    json.set("objective", Json(name()));
    json.set("space", std::move(space));
    json.set("engine", std::move(engine));
    return json;
  }

 protected:
  [[nodiscard]] Evaluation simulate(const std::vector<Rational>& point) const {
    return simulate(space_.instance_at(point), effective_config(point));
  }

  [[nodiscard]] Evaluation simulate(const agents::Instance& instance,
                                    const sim::EngineConfig& config) const {
    const sim::SimResult run = sim::Engine(instance, config).run(algorithm_(instance));
    Evaluation evaluation;
    evaluation.met = run.met;
    evaluation.meet_time = run.meet_time;
    evaluation.min_distance = run.min_distance_seen;
    evaluation.clearance =
        run.min_distance_seen - std::min(config.r_a.value_or(instance.r()),
                                         config.r_b.value_or(instance.r()));
    evaluation.events = run.events;
    evaluation.stop_reason = sim::to_string(run.reason);
    evaluation.instance = instance.to_string();
    return evaluation;
  }

  /// The engine config a point runs under: the objective's config with the
  /// tuple family's searched/pinned r_a / r_b written in (Section 5
  /// distinct radii as search dimensions).
  [[nodiscard]] sim::EngineConfig effective_config(const std::vector<Rational>& point) const {
    sim::EngineConfig config = config_;
    if (space_.family == SearchSpace::Family::Tuple) {
      if (space_.specifies("r_a")) config.r_a = space_.param("r_a", point).to_double();
      if (space_.specifies("r_b")) config.r_b = space_.param("r_b", point).to_double();
    }
    return config;
  }

  /// Interval of one per-agent radius over `box`: the space's r_a/r_b
  /// dimension if searched or pinned there, else the engine config's
  /// override, else the instance radius r.
  [[nodiscard]] FInterval per_agent_radius_interval(const ParamBox& box, const char* which,
                                                    const std::optional<double>& override)
      const {
    if (space_.family == SearchSpace::Family::Tuple && space_.specifies(which))
      return view(space_.param_interval(which, box));
    if (override) return FInterval::point(*override);
    return view(space_.param_interval("r", box));
  }

  /// Interval of the rendezvous radius min(r_a, r_b) over `box` — the
  /// distance at which a run succeeds, and the radius the Theorem 3.1
  /// necessity argument holds for under Section 5 distinct radii (meeting
  /// requires the distance to reach the *smaller* radius).
  [[nodiscard]] FInterval rendezvous_radius_interval(const ParamBox& box) const {
    const FInterval r_a = per_agent_radius_interval(box, "r_a", config_.r_a);
    const FInterval r_b = per_agent_radius_interval(box, "r_b", config_.r_b);
    return min(r_a, r_b);
  }

  /// Interval of the Theorem 3.1 boundary slack t - (d - r) over `box` for
  /// the caller-chosen radius interval `r` (the rendezvous radius for
  /// feasibility pruning, the instance r for the analytic boundary
  /// distance), where d is dist (chi = +1, phi pinned to 0) or
  /// dist(projA, projB) (chi = -1). Valid only for synchronous tuple
  /// spaces. The t/r legs and the t - d + r combination are outward-rounded
  /// FInterval arithmetic (no slop needed); the distance leg d runs through
  /// hypot and, for fixed phi, cos/sin — so d alone is widened by
  /// bound_slop before combining, which also absorbs core::classify's
  /// plain-double slack evaluation on the boundary-distance path.
  [[nodiscard]] FInterval slack_interval(const ParamBox& box, const FInterval& r) const {
    const FInterval t = view(space_.param_interval("t", box));
    const FInterval x = view(space_.param_interval("x", box)).abs();
    const FInterval y = view(space_.param_interval("y", box)).abs();
    FInterval d{0.0, std::hypot(x.hi, y.hi)};  // 0 <= d <= dist_hi always
    const Interval phi = space_.param_interval("phi", box);
    if (space_.chi == -1) {
      if (phi.is_point()) {
        // Fixed phi: dproj = |b . unit(phi/2)| is linear in (x, y), so its
        // range is spanned by the corner values.
        const double half = phi.lo.to_double() / 2.0;
        const double c = std::cos(half);
        const double s = std::sin(half);
        const FInterval raw_x = view(space_.param_interval("x", box));
        const FInterval raw_y = view(space_.param_interval("y", box));
        double lo = kInf;
        double hi = -kInf;
        for (const double bx : {raw_x.lo, raw_x.hi}) {
          for (const double by : {raw_y.lo, raw_y.hi}) {
            const double proj = bx * c + by * s;
            lo = std::min(lo, proj);
            hi = std::max(hi, proj);
          }
        }
        d = FInterval{lo, hi}.abs();
      }
      // Searched phi: keep the conservative d in [0, dist_hi].
    } else {
      d = FInterval{std::hypot(x.lo, y.lo), std::hypot(x.hi, y.hi)};  // dist itself
    }
    // The slop magnitude must include the raw coordinate maxima (x.hi,
    // y.hi), not just d.hi: the fixed-phi projection above can cancel to a
    // tiny d whose round-off error still scales with |b|. t and r join the
    // set because classify re-derives the slack from them in doubles.
    const double slop = bound_slop(std::max(
        {std::fabs(t.lo), std::fabs(t.hi), x.hi, y.hi, d.hi, std::fabs(r.lo), std::fabs(r.hi)}));
    return t - d.widened(slop) + r;
  }

  /// True when the whole box is provably infeasible under Theorem 3.1
  /// (synchronous, boundary slack entirely negative); such boxes can never
  /// produce a meeting. With distinct radii the slack uses min(r_a, r_b):
  /// reaching the smaller radius is necessary for a rendezvous.
  [[nodiscard]] bool provably_infeasible(const ParamBox& box) const {
    if (space_.family != SearchSpace::Family::Tuple) return false;  // manifolds are feasible
    if (!space_.synchronous()) return false;  // tau != 1 or v != 1: always feasible
    if (space_.chi == +1) {
      const Interval phi = space_.param_interval("phi", box);
      if (!phi.is_point() || !phi.lo.is_zero()) return false;  // phi != 0: always feasible
    }
    // The interval is already slop-widened.
    return slack_interval(box, rendezvous_radius_interval(box)).hi < 0.0;
  }

  SearchSpace space_;
  AlgorithmResolverFn algorithm_;
  sim::EngineConfig config_;
};

/// Theorem 3.2's cost side: the slowest-to-meet instance in the space.
class MaxMeetTimeObjective final : public SimObjective {
 public:
  using SimObjective::SimObjective;
  [[nodiscard]] std::string name() const override { return "max-meet-time"; }

  [[nodiscard]] Evaluation evaluate(const std::vector<Rational>& point) const override {
    Evaluation evaluation = simulate(point);
    // Non-meeting runs score a fixed -1 (below every legal meet time, and
    // finite so artifacts stay valid JSON).
    evaluation.score = evaluation.met ? evaluation.meet_time : -1.0;
    return evaluation;
  }

  [[nodiscard]] double bound(const ParamBox& box) const override {
    if (provably_infeasible(box)) return -kInf;
    // Meet times never exceed the horizon; the outward-rounded enclosure's
    // upper endpoint dominates every nearest-rounded meet_time (rounding is
    // monotone), so no slop is needed.
    if (config_.horizon) return FInterval::enclose(*config_.horizon).hi;
    return kInf;
  }
};

/// Theorem 4.1 probe: how little does a fixed algorithm miss by on the
/// exception manifolds? score = -(clearance to rendezvous).
class NearMissObjective final : public SimObjective {
 public:
  using SimObjective::SimObjective;
  [[nodiscard]] std::string name() const override { return "near-miss"; }

  [[nodiscard]] Evaluation evaluate(const std::vector<Rational>& point) const override {
    Evaluation evaluation = simulate(point);
    evaluation.score = -evaluation.clearance;
    return evaluation;
  }

  [[nodiscard]] double bound(const ParamBox& box) const override {
    // Distances are nonnegative, so -(clearance) <= rendezvous radius
    // (min(r_a, r_b) with Section 5 overrides, searched or config-fixed).
    // The interval's endpoints are outward-rounded, so .hi dominates every
    // point's nearest-rounded radius without extra slop.
    return rendezvous_radius_interval(box).hi;
  }
};

/// Theorem 3.1 knife edge: distance to the S1/S2 feasibility boundary,
/// minimized (score = -|slack|). The bound is pure interval arithmetic —
/// boxes provably far from the boundary are pruned without simulating.
class BoundaryDistanceObjective final : public SimObjective {
 public:
  using SimObjective::SimObjective;
  [[nodiscard]] std::string name() const override { return "boundary-distance"; }

  [[nodiscard]] Evaluation evaluate(const std::vector<Rational>& point) const override {
    const agents::Instance instance = space_.instance_at(point);
    // effective_config so searched/pinned r_a/r_b reach the engine here
    // too: the analytic score ignores them, but the certificate's
    // evaluation record must describe the run the spec declares.
    Evaluation evaluation = simulate(instance, effective_config(point));
    const core::Classification c = core::classify(instance);
    evaluation.score = -std::fabs(c.boundary_slack);
    return evaluation;
  }

  [[nodiscard]] double bound(const ParamBox& box) const override {
    if (space_.family != SearchSpace::Family::Tuple) return 0.0;  // manifolds: slack == 0
    // The analytic boundary slack (core::classify) is defined on the
    // instance r, not the per-agent overrides — mirror it exactly.
    const FInterval r = view(space_.param_interval("r", box));
    const FInterval magnitude = slack_interval(box, r).abs();  // already slop-widened
    return -std::max(0.0, magnitude.lo);
  }
};

/// Section 5's open problem, cost side: the n-agent chain on which the
/// common program takes longest to gather. Not a SimObjective — the oracle
/// is the gathering engine, and the common program is resolved *once* (no
/// two-agent instance to dispatch on).
class MaxGatherTimeObjective final : public Objective {
 public:
  MaxGatherTimeObjective(SearchSpace space, sim::AlgorithmFactory factory,
                         sim::EngineConfig config)
      : space_(std::move(space)), factory_(std::move(factory)), config_(std::move(config)) {}

  [[nodiscard]] std::string name() const override { return "max-gather-time"; }

  [[nodiscard]] Evaluation evaluate(const std::vector<Rational>& point) const override {
    const agents::GatherInstance instance = space_.gather_instance_at(point);
    const gather::StopPolicy policy = space_.gather_policy_at(point);
    gather::GatherConfig config;
    config.r = instance.r;
    config.policy = policy;
    config.success_diameter =
        gather::default_success_diameter(policy, instance.n(), instance.r);
    config.contact_slack = config_.contact_slack;
    config.max_events = config_.max_events;
    config.horizon = config_.horizon;
    const gather::GatherResult run =
        gather::GatherEngine(instance.agents, config).run(factory_);
    Evaluation evaluation;
    evaluation.met = run.gathered;
    evaluation.meet_time = run.gather_time;
    evaluation.min_distance = run.min_diameter_seen;
    evaluation.clearance = run.min_diameter_seen - *config.success_diameter;
    evaluation.events = run.events;
    evaluation.stop_reason = gather::to_string(run.reason);
    evaluation.instance = instance.to_string() + " policy=" + gather::to_string(policy);
    // Non-gathering runs score a fixed -1, mirroring max-meet-time.
    evaluation.score = run.gathered ? run.gather_time : -1.0;
    return evaluation;
  }

  [[nodiscard]] double bound(const ParamBox& box) const override {
    if (provably_ungatherable(box)) return -kInf;
    // Same monotone-rounding argument as max-meet-time: the enclosure's
    // upper endpoint dominates every nearest-rounded gather_time.
    if (config_.horizon) return FInterval::enclose(*config_.horizon).hi;
    return kInf;
  }

  [[nodiscard]] Json descriptor() const override {
    Json space = Json::object();
    space.set("family", Json(SearchSpace::to_string(space_.family)));
    Json dims = Json::array();
    for (const std::string& dim : space_.dim_names) dims.push_back(Json(dim));
    space.set("dims", std::move(dims));
    Json fixed = Json::object();
    for (const auto& [param, value] : space_.fixed) fixed.set(param, Json(value.to_string()));
    space.set("fixed", std::move(fixed));
    Json engine = Json::object();
    engine.set("max_events", Json(config_.max_events));
    engine.set("contact_slack", Json(config_.contact_slack));
    engine.set("horizon", config_.horizon ? Json(config_.horizon->to_string()) : Json());
    Json json = Json::object();
    json.set("objective", Json(name()));
    json.set("space", std::move(space));
    json.set("engine", std::move(engine));
    return json;
  }

 private:
  /// The shifted-frames reachability prune. Two agents running one common
  /// program T at unit speed satisfy |T(s - w_i) - T(s - w_j)| <= |w_i - w_j|
  /// (T is 1-Lipschitz), so while nobody has frozen the pair (i, j) of the
  /// staggered chain keeps distance >= |i - j| * (|spread| - |delay|). If
  /// that floor exceeds the sight radius for the adjacent pair, no freeze
  /// ever happens anywhere in the box — and the same floor applied to the
  /// extreme pair keeps the diameter above *both* policies' success
  /// diameters (r, and (n-1) * r + 1e-6), so no point can score.
  [[nodiscard]] bool provably_ungatherable(const ParamBox& box) const {
    const FInterval n = view(space_.param_interval("n", box));
    // A box containing n = 1 points contains trivially-gathered points
    // (score 0); the chain argument needs at least one pair.
    if (gather_agent_count(Rational::from_double(n.lo)) < 2) return false;
    const FInterval spread = view(space_.param_interval("spread", box)).abs();
    const FInterval delay = view(space_.param_interval("delay", box)).abs();
    const FInterval r = view(space_.param_interval("r", box));
    // Downward-rounded floor of |spread| - |delay| over the box.
    const double gap_floor = (spread - delay).lo;
    // Margins: contact_slack + the engine's 1e-9 freeze slop + the 1e-6
    // FirstSight success-diameter slack, all widened by bound_slop.
    const double margin = config_.contact_slack + 1e-6 +
                          bound_slop(std::max({spread.hi, delay.hi, std::fabs(r.hi)}));
    return gap_floor > r.hi + margin;
  }

  SearchSpace space_;
  sim::AlgorithmFactory factory_;
  sim::EngineConfig config_;
};

}  // namespace

const std::vector<std::string>& objective_names() {
  static const std::vector<std::string> names = {"max-meet-time", "near-miss",
                                                 "boundary-distance", "max-gather-time"};
  return names;
}

std::unique_ptr<Objective> make_objective(const std::string& name, SearchSpace space,
                                          AlgorithmResolverFn algorithm,
                                          sim::EngineConfig config) {
  space.validate();
  AURV_CHECK_MSG(static_cast<bool>(algorithm), "make_objective: algorithm resolver required");
  if (name == "max-gather-time") {
    if (space.family != SearchSpace::Family::GatherTuple)
      throw std::invalid_argument(
          "objective max-gather-time: requires the gather-tuple family (two-agent "
          "families have no gathering semantics)");
    if (config.r_a || config.r_b)
      throw std::invalid_argument(
          "objective max-gather-time: engine r_a/r_b overrides do not apply — the "
          "gathering model has one common visibility radius (the space's r)");
    // Gather searches run one *common* program on every agent; the resolver
    // is probed once with a fixed instance (callers pass an instance-blind
    // resolver — exp::resolve_common_algorithm enforces that upstream).
    static const agents::Instance probe =
        agents::Instance::synchronous(1.0, {2.0, 0.0}, 0.0, 1, +1);
    return std::make_unique<MaxGatherTimeObjective>(std::move(space), algorithm(probe),
                                                    std::move(config));
  }
  if (space.family == SearchSpace::Family::GatherTuple)
    throw std::invalid_argument("objective " + name +
                                ": the gather-tuple family pairs only with max-gather-time");
  if (name == "max-meet-time")
    return std::make_unique<MaxMeetTimeObjective>(std::move(space), std::move(algorithm),
                                                  std::move(config));
  if (name == "near-miss")
    return std::make_unique<NearMissObjective>(std::move(space), std::move(algorithm),
                                               std::move(config));
  if (name == "boundary-distance") {
    if (space.family == SearchSpace::Family::Tuple) {
      if (!space.synchronous())
        throw std::invalid_argument(
            "objective boundary-distance: requires a synchronous space (tau = v = 1); "
            "non-synchronous instances have no feasibility boundary");
      if (space.chi == +1) {
        const bool phi_searched = std::find(space.dim_names.begin(), space.dim_names.end(),
                                            "phi") != space.dim_names.end();
        if (phi_searched || !space.param("phi", {}).is_zero())
          throw std::invalid_argument(
              "objective boundary-distance: chi = +1 requires phi fixed to 0 (the S1 "
              "boundary); chi = +1 with phi != 0 is always feasible");
      }
    }
    return std::make_unique<BoundaryDistanceObjective>(std::move(space), std::move(algorithm),
                                                       std::move(config));
  }
  std::string message = "unknown objective \"" + name + "\"; known: ";
  for (std::size_t k = 0; k < objective_names().size(); ++k) {
    if (k != 0) message += ", ";
    message += objective_names()[k];
  }
  throw std::invalid_argument(message);
}

}  // namespace aurv::search
