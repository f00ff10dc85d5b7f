// Worst-case search subsystem tests: canonical box refinement, search-space
// families, objective registry and bounds, SearchSpec JSON round-trip, and
// the branch-and-bound's determinism guarantees — byte-identical incumbent
// logs and certificates at any shard count and across checkpoint/resume
// cycles — plus the Theorem 4.1 rediscovery acceptance: the S2 near-miss
// scenario must find a configuration at least as close to rendezvous as the
// committed clearance bound, far inside the analytic adversary's margin.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "test_paths.hpp"
#include "core/adversary.hpp"
#include "core/almost_universal.hpp"
#include "core/feasibility.hpp"
#include "exp/registry.hpp"
#include "exp/scenario.hpp"
#include "exp/search_driver.hpp"
#include "search/bnb.hpp"
#include "search/box.hpp"
#include "search/objective.hpp"

namespace aurv::search {
namespace {

using exp::SearchOptions;
using exp::SearchSpec;
using numeric::Rational;
using support::Json;
using testpaths::scenario_path;
using testpaths::slurp;
using testpaths::temp_path;

/// A fast tuple-space max-meet-time spec used by the determinism tests.
SearchSpec small_spec() {
  SearchSpec spec;
  spec.name = "test_search";
  spec.algorithm = "aurv";
  spec.objective = "max-meet-time";
  spec.space.family = SearchSpace::Family::Tuple;
  spec.space.chi = -1;
  spec.space.fixed = {{"r", Rational(1)}, {"y", Rational(numeric::BigInt(6), numeric::BigInt(5))},
                      {"phi", Rational(0)}};
  spec.space.dim_names = {"x", "t"};
  spec.box = {Interval{Rational(numeric::BigInt(3), numeric::BigInt(2)),
                       Rational(numeric::BigInt(7), numeric::BigInt(2))},
              Interval{Rational(0), Rational(3)}};
  spec.limits.max_boxes = 48;
  spec.limits.wave_size = 8;
  spec.limits.min_width = Rational(numeric::BigInt(1), numeric::BigInt(64));
  spec.engine.max_events = 2'000'000;
  spec.engine.horizon = Rational(256);
  return spec;
}

// ------------------------------------------------------------------- boxes --

TEST(ParamBox, CanonicalBisectionSplitsWidestDimensionTiesLowestIndex) {
  const ParamBox box({Interval{Rational(0), Rational(2)}, Interval{Rational(0), Rational(4)}});
  EXPECT_EQ(box.split_dimension(), 1u);
  EXPECT_EQ(box.width(), Rational(4));

  const auto [lower, upper] = box.bisect();
  EXPECT_EQ(lower.id(), "0");
  EXPECT_EQ(upper.id(), "1");
  EXPECT_EQ(lower.dim(1).hi, Rational(2));
  EXPECT_EQ(upper.dim(1).lo, Rational(2));
  EXPECT_EQ(lower.dim(0), box.dim(0));  // untouched dimension

  // Tie: both dimensions now width 2 -> dimension 0 splits next.
  EXPECT_EQ(lower.split_dimension(), 0u);

  // Exact midpoints: no drift however deep the refinement goes.
  const auto [ll, lu] = lower.bisect();
  (void)lu;
  EXPECT_EQ(ll.dim(0).hi, Rational(1));
  EXPECT_EQ(ll.id(), "00");
  EXPECT_EQ(ll.midpoint()[0], Rational(numeric::BigInt(1), numeric::BigInt(2)));
}

TEST(ParamBox, JsonRoundTripIsLossless) {
  const ParamBox box({Interval{Rational::from_string("1/3"), Rational::from_string("22/7")},
                      Interval{Rational(-2), Rational(5)}},
                     "0110");
  const ParamBox reloaded = ParamBox::from_json(box.to_json());
  EXPECT_EQ(reloaded, box);
  EXPECT_EQ(reloaded.id(), "0110");
}

TEST(OpenBox, EncodeIsTheCompactJsonDump) {
  // Negative and big-tier endpoints (past the inline 64-bit tier), finite,
  // infinite and negative-zero bounds: encode() writes the record straight
  // into a string, byte for byte what the Json tree would dump.
  const Rational big = Rational::from_string("-123456789012345678901234567890/7");
  const Rational tiny = Rational::dyadic(1, 100);
  const ParamBox box({Interval{big, Rational::from_string("-1/3")},
                      Interval{Rational(0), tiny}, Interval{Rational(-5), Rational(5)}},
                     "0110");
  for (const double bound : {2.5, -17.0, 0.1, 1e300, 0.0, -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    const OpenBox open{box, bound};
    EXPECT_EQ(open.encode(), open.to_json().dump()) << bound;
  }
  const OpenBox root{ParamBox({Interval{Rational(1), Rational(2)}}), 3.0};
  EXPECT_EQ(root.encode(), root.to_json().dump());
  EXPECT_EQ(root.encode(), R"({"id":"","dims":[["1","2"]],"bound":3})");
}

TEST(ParamBox, RejectsMalformedInput) {
  EXPECT_THROW(ParamBox({Interval{Rational(2), Rational(1)}}), std::logic_error);
  EXPECT_THROW(ParamBox({Interval{Rational(0), Rational(1)}}, "0x1"), std::logic_error);
  EXPECT_THROW(ParamBox({}), std::logic_error);
}

// ------------------------------------------------------------------- space --

TEST(SearchSpace, TupleFamilyMapsPointsToInstances) {
  SearchSpace space;
  space.family = SearchSpace::Family::Tuple;
  space.chi = -1;
  space.dim_names = {"x", "t"};
  space.fixed = {{"y", Rational(2)}};
  space.validate();

  const agents::Instance instance =
      space.instance_at({Rational(3), Rational::from_string("3/2")});
  EXPECT_EQ(instance.b_start().x, 3.0);
  EXPECT_EQ(instance.b_start().y, 2.0);
  EXPECT_EQ(instance.t(), Rational::from_string("3/2"));
  EXPECT_EQ(instance.chi(), -1);
  EXPECT_TRUE(instance.is_synchronous());  // tau/v default to 1
  EXPECT_TRUE(space.synchronous());
}

TEST(SearchSpace, BoundaryFamiliesLandExactlyOnTheExceptionSets) {
  SearchSpace s2;
  s2.family = SearchSpace::Family::BoundaryS2;
  s2.dim_names = {"half_phi"};
  s2.validate();
  // Any point of the boundary-s2 family classifies as S2 (Theorem 4.1's
  // manifold), by the same construction as the analytic adversary.
  const agents::Instance instance = s2.instance_at({Rational::from_string("1/3")});
  EXPECT_EQ(core::classify(instance, 1e-9).kind, core::InstanceKind::BoundaryS2);

  SearchSpace s1;
  s1.family = SearchSpace::Family::BoundaryS1;
  s1.dim_names = {"theta"};
  s1.validate();
  const agents::Instance s1_instance = s1.instance_at({Rational::from_string("5/4")});
  EXPECT_EQ(core::classify(s1_instance, 1e-9).kind, core::InstanceKind::BoundaryS1);
}

TEST(SearchSpace, ValidateRejectsMistakes) {
  SearchSpace space;
  space.dim_names = {"x", "x"};
  EXPECT_THROW(space.validate(), std::invalid_argument);  // duplicate
  space.dim_names = {"theta"};
  EXPECT_THROW(space.validate(), std::invalid_argument);  // not a tuple param
  space.dim_names = {"x"};
  space.fixed = {{"x", Rational(1)}};
  EXPECT_THROW(space.validate(), std::invalid_argument);  // searched and fixed
  space.fixed.clear();
  space.chi = 2;
  EXPECT_THROW(space.validate(), std::invalid_argument);  // bad chirality
}

// -------------------------------------------------------------- objectives --

TEST(Objective, RegistryResolvesEveryNameAndRejectsUnknowns) {
  const std::vector<std::string> expected = {"max-meet-time", "near-miss",
                                             "boundary-distance", "max-gather-time"};
  EXPECT_EQ(objective_names(), expected);

  SearchSpace space;
  space.chi = -1;
  space.dim_names = {"t"};
  SearchSpace gather_space;
  gather_space.family = SearchSpace::Family::GatherTuple;
  gather_space.dim_names = {"spread"};
  const AlgorithmResolverFn resolver = exp::resolve_algorithm("aurv");
  for (const std::string& name : objective_names()) {
    // max-gather-time pairs only with the gather-tuple family (and vice
    // versa), so pick the matching space per name.
    const auto objective = make_objective(
        name, name == "max-gather-time" ? gather_space : space, resolver, {});
    ASSERT_TRUE(objective) << name;
    EXPECT_EQ(objective->name(), name);
  }
  try {
    (void)make_objective("nope", space, resolver, {});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("near-miss"), std::string::npos);
  }
}

TEST(Objective, BoundaryDistanceRejectsSpacesWithoutABoundary) {
  const AlgorithmResolverFn resolver = exp::resolve_algorithm("aurv");
  SearchSpace skewed;
  skewed.dim_names = {"tau"};  // searched clock rate: never synchronous
  EXPECT_THROW((void)make_objective("boundary-distance", skewed, resolver, {}),
               std::invalid_argument);

  SearchSpace rotated;
  rotated.chi = +1;
  rotated.dim_names = {"phi"};  // chi=+1 with phi != 0 is always feasible
  EXPECT_THROW((void)make_objective("boundary-distance", rotated, resolver, {}),
               std::invalid_argument);
}

TEST(Objective, MaxMeetTimePrunesProvablyInfeasibleBoxes) {
  SearchSpace space;
  space.chi = -1;
  space.dim_names = {"x", "t"};
  space.fixed = {{"r", Rational(1)}, {"y", Rational(1)}, {"phi", Rational(0)}};
  sim::EngineConfig config;
  config.horizon = Rational(128);
  const auto objective =
      make_objective("max-meet-time", space, exp::resolve_algorithm("aurv"), config);

  // Entirely below the boundary t = |x| - r: provably infeasible, bound -inf.
  const ParamBox infeasible({Interval{Rational(4), Rational(6)},  // dproj >= 3 + r
                             Interval{Rational(0), Rational(1)}});
  EXPECT_EQ(objective->bound(infeasible), -std::numeric_limits<double>::infinity());

  // Straddles the boundary: cannot be pruned; capped by the horizon.
  const ParamBox mixed({Interval{Rational(2), Rational(3)}, Interval{Rational(0), Rational(4)}});
  EXPECT_GE(objective->bound(mixed), 128.0);

  // Evaluation scores a feasible point with its meet time.
  const Evaluation feasible = objective->evaluate({Rational(2), Rational(3)});
  EXPECT_TRUE(feasible.met);
  EXPECT_EQ(feasible.score, feasible.meet_time);
  EXPECT_GT(feasible.score, 0.0);
}

TEST(Objective, BoundaryDistanceBoundIsConsistentWithEvaluation) {
  SearchSpace space;
  space.chi = +1;
  space.dim_names = {"x", "t"};
  space.fixed = {{"r", Rational(1)}, {"y", Rational(0)}, {"phi", Rational(0)}};
  sim::EngineConfig config;
  config.horizon = Rational(8);
  const auto objective =
      make_objective("boundary-distance", space, exp::resolve_algorithm("aurv"), config);

  // Box far from the boundary t = x - 1 (slack <= 1/16 - 2 + 1 = -15/16
  // everywhere): bound well below zero.
  const ParamBox far({Interval{Rational(2), Rational(3)},
                      Interval{Rational(0), Rational::from_string("1/16")}});
  EXPECT_LT(objective->bound(far), -0.9);
  // The bound over-estimates every evaluation inside the box.
  for (const auto& point :
       {std::vector<Rational>{Rational(2), Rational(0)},
        std::vector<Rational>{Rational(3), Rational::from_string("1/16")},
        std::vector<Rational>{Rational::from_string("5/2"), Rational::from_string("1/32")}}) {
    EXPECT_GE(objective->bound(far) + 1e-6, objective->evaluate(point).score);
  }

  // Box containing the boundary: bound 0 (nothing to prune against).
  const ParamBox across({Interval{Rational(2), Rational(3)}, Interval{Rational(1), Rational(3)}});
  EXPECT_EQ(objective->bound(across), 0.0);
}

// -------------------------------------------------------------------- spec --

TEST(SearchSpec, JsonRoundTrip) {
  const SearchSpec spec = small_spec();
  const SearchSpec reloaded = SearchSpec::from_json(spec.to_json());
  EXPECT_EQ(reloaded.to_json(), spec.to_json());
  EXPECT_EQ(reloaded.fingerprint(), spec.fingerprint());
  EXPECT_EQ(reloaded.objective, "max-meet-time");
  EXPECT_EQ(reloaded.space.dim_names, (std::vector<std::string>{"x", "t"}));
  EXPECT_EQ(reloaded.box[0].lo, Rational::from_string("3/2"));
  EXPECT_EQ(reloaded.limits.max_boxes, 48u);
  EXPECT_EQ(reloaded.limits.min_width, Rational::from_string("1/64"));
  ASSERT_TRUE(reloaded.engine.horizon.has_value());
  EXPECT_EQ(*reloaded.engine.horizon, Rational(256));
}

TEST(SearchSpec, StrictParsingRejectsMistakes) {
  const Json valid = small_spec().to_json();

  Json missing_kind = valid;
  missing_kind.as_object()[1].second = Json("campaign");  // "kind"
  EXPECT_THROW((void)SearchSpec::from_json(missing_kind), std::invalid_argument);

  Json typo = valid;
  typo.set("objektive", Json("near-miss"));
  EXPECT_THROW((void)SearchSpec::from_json(typo), std::invalid_argument);

  EXPECT_THROW((void)SearchSpec::from_json(Json::parse(
                   R"({"kind":"search","objective":"nope",
                       "space":{"family":"tuple","box":{"t":[0,1]}}})")),
               std::invalid_argument);
  EXPECT_THROW((void)SearchSpec::from_json(Json::parse(
                   R"({"kind":"search","space":{"family":"tuple","box":{"t":[1,0]}}})")),
               std::invalid_argument);  // lo > hi
  EXPECT_THROW((void)SearchSpec::from_json(Json::parse(
                   R"({"kind":"search","space":{"family":"boundary-s2","chi":-1,
                       "box":{"half_phi":[0,1]}}})")),
               std::invalid_argument);  // chi on a boundary family
  EXPECT_THROW((void)SearchSpec::from_json(Json::parse(
                   R"({"kind":"search","space":{"family":"tuple","box":{"t":[0,1]}},
                       "budget":{"wave_size":0}})")),
               std::invalid_argument);
  EXPECT_THROW((void)SearchSpec::from_json(Json::parse(
                   R"({"kind":"search","space":{"family":"tuple","box":{"t":[0,1]}},
                       "engine":{"contact_slack":-3}})")),
               std::invalid_argument);
  EXPECT_THROW((void)SearchSpec::from_json(Json::parse(
                   R"({"kind":"search","space":{"family":"tuple","box":{"t":[0,1]}},
                       "engine":{"r_a":2,"r_b":0}})")),
               std::invalid_argument);
  EXPECT_THROW((void)SearchSpec::from_json(Json::parse(
                   R"({"kind":"search","space":{"family":"tuple","box":{"t":[0,1]}},
                       "engine":{"horizon":"-5"}})")),
               std::invalid_argument);
}

TEST(SearchSpec, FingerprintDetectsEdits) {
  const SearchSpec spec = small_spec();
  SearchSpec edited = spec;
  edited.limits.max_boxes += 1;
  EXPECT_NE(spec.fingerprint(), edited.fingerprint());
}

TEST(SearchSpec, CommittedScenarioFilesLoad) {
  for (const char* leaf : {"search_smoke.json", "search_type1_worst_meet.json",
                           "search_s2_near_miss.json", "search_gather_worst.json"}) {
    const SearchSpec spec = SearchSpec::load(scenario_path(leaf));
    EXPECT_FALSE(spec.name.empty()) << leaf;
    EXPECT_GE(spec.root_box().dim_count(), 1u) << leaf;
  }
}

// ----------------------------------------------------------- determinism --

TEST(Search, CertificateAndIncumbentLogAreShardCountInvariant) {
  const SearchSpec spec = small_spec();
  const std::string log_1 = temp_path("search_log_1.jsonl");
  const std::string log_n = temp_path("search_log_n.jsonl");

  SearchOptions serial;
  serial.max_shards = 1;
  serial.incumbent_log_path = log_1;
  SearchOptions parallel;
  parallel.max_shards = 8;
  parallel.incumbent_log_path = log_n;

  const std::string cert_1 = exp::run_search(spec, serial).certificate(spec).dump(2);
  const std::string cert_n = exp::run_search(spec, parallel).certificate(spec).dump(2);
  EXPECT_EQ(cert_1, cert_n);  // bit-identical, including double scores
  EXPECT_EQ(slurp(log_1), slurp(log_n));
  EXPECT_FALSE(slurp(log_1).empty());
}

TEST(Search, CheckpointResumeMatchesOneShot) {
  const SearchSpec spec = small_spec();
  const std::string checkpoint = temp_path("search_ck.json");
  const std::string log_resumed = temp_path("search_log_resumed.jsonl");
  const std::string log_oneshot = temp_path("search_log_oneshot.jsonl");
  std::filesystem::remove(checkpoint);

  SearchOptions oneshot;
  oneshot.max_shards = 4;
  oneshot.incumbent_log_path = log_oneshot;
  const std::string expected = exp::run_search(spec, oneshot).certificate(spec).dump(2);

  SearchOptions interrupted = oneshot;
  interrupted.incumbent_log_path = log_resumed;
  interrupted.checkpoint_path = checkpoint;
  interrupted.checkpoint_every = 2;
  interrupted.max_waves = 3;
  const exp::SearchRunResult partial = exp::run_search(spec, interrupted);
  EXPECT_FALSE(partial.bnb.complete());
  EXPECT_TRUE(std::filesystem::exists(checkpoint));

  SearchOptions resume = interrupted;
  resume.max_waves = 0;
  resume.resume = true;
  resume.max_shards = 1;  // resume on a different worker count, same artifacts
  const exp::SearchRunResult finished = exp::run_search(spec, resume);
  EXPECT_TRUE(finished.bnb.complete());
  EXPECT_EQ(finished.certificate(spec).dump(2), expected);
  EXPECT_EQ(slurp(log_resumed), slurp(log_oneshot));
}

TEST(Search, ResumeRefusesEditedSpecAndForeignLogPath) {
  SearchSpec spec = small_spec();
  const std::string checkpoint = temp_path("search_ck_guard.json");
  const std::string log = temp_path("search_ck_guard.jsonl");
  std::filesystem::remove(checkpoint);

  SearchOptions options;
  options.incumbent_log_path = log;
  options.checkpoint_path = checkpoint;
  options.max_waves = 2;
  (void)exp::run_search(spec, options);

  SearchOptions resume = options;
  resume.resume = true;
  resume.max_waves = 0;
  SearchSpec edited = spec;
  edited.limits.min_improvement = 0.5;  // a different search now
  EXPECT_THROW((void)exp::run_search(edited, resume), std::invalid_argument);

  resume.incumbent_log_path = temp_path("somewhere_else.jsonl");
  EXPECT_THROW((void)exp::run_search(spec, resume), std::invalid_argument);
}

TEST(Search, ResumeRefusesRenamedIncumbentPointKeys) {
  // The incumbent point is stored as an object whose key order is the
  // dimension order; a renamed (or reordered) key in a hand-edited
  // checkpoint must be rejected, not silently permuted into the wrong
  // dimensions.
  const SearchSpec spec = small_spec();
  const std::string checkpoint = temp_path("search_ck_point_keys.json");
  const std::string log = temp_path("search_ck_point_keys.jsonl");
  std::filesystem::remove(checkpoint);

  SearchOptions options;
  options.incumbent_log_path = log;
  options.checkpoint_path = checkpoint;
  options.max_waves = 2;
  (void)exp::run_search(spec, options);

  support::Json ck = support::Json::load_file(checkpoint);
  ASSERT_FALSE(ck.at("incumbent").is_null());
  for (auto& [key, value] : ck.as_object()) {
    if (key != "incumbent") continue;
    for (auto& [field, point] : value.as_object()) {
      if (field != "point") continue;
      ASSERT_FALSE(point.as_object().empty());
      point.as_object().front().first = "not_" + point.as_object().front().first;
    }
  }
  ck.save_file(checkpoint);

  SearchOptions resume = options;
  resume.resume = true;
  resume.max_waves = 0;
  EXPECT_THROW((void)exp::run_search(spec, resume), support::JsonError);
}

TEST(Search, CheckpointGuardsEveryLimitEvenWithoutAFingerprint) {
  // Direct run_bnb callers may leave options.fingerprint empty; the
  // checkpoint still refuses a resume under different BnbLimits (which
  // would mix two pruning/leaf regimes into one "optimal" certificate).
  const SearchSpec spec = small_spec();
  const auto objective = make_objective(spec.objective, spec.space,
                                        exp::resolve_algorithm(spec.algorithm), spec.engine);
  const std::string checkpoint = temp_path("bnb_limits_ck.json");
  std::filesystem::remove(checkpoint);

  BnbOptions options;
  options.checkpoint_path = checkpoint;
  options.max_waves = 2;
  (void)run_bnb(spec.root_box(), *objective, spec.limits, options);

  options.resume = true;
  options.max_waves = 0;
  BnbLimits narrower = spec.limits;
  narrower.min_width = Rational(numeric::BigInt(1), numeric::BigInt(4096));
  EXPECT_THROW((void)run_bnb(spec.root_box(), *objective, narrower, options),
               std::invalid_argument);
  BnbLimits stricter = spec.limits;
  stricter.min_improvement = 0.25;
  EXPECT_THROW((void)run_bnb(spec.root_box(), *objective, stricter, options),
               std::invalid_argument);
  // ... and refuses a different search entirely: without a fingerprint the
  // checkpoint still pins the root box and the objective name, so a stale
  // checkpoint can never seed a search over a different space.
  EXPECT_THROW((void)run_bnb(ParamBox({Interval{Rational(0), Rational(2)}}), *objective,
                             spec.limits, options),
               std::invalid_argument);
  const auto other_objective = make_objective(
      "near-miss", spec.space, exp::resolve_algorithm(spec.algorithm), spec.engine);
  EXPECT_THROW((void)run_bnb(spec.root_box(), *other_objective, spec.limits, options),
               std::invalid_argument);
  // Unchanged limits resume fine.
  const BnbResult finished = run_bnb(spec.root_box(), *objective, spec.limits, options);
  EXPECT_TRUE(finished.complete());
}

TEST(Search, ExhaustiveRunProducesOptimalityCertificate) {
  // A coarse search that drains its frontier: exhausted == true and the
  // certificate carries no residual frontier bound.
  SearchSpec spec = small_spec();
  spec.limits.max_boxes = 4096;
  spec.limits.min_width = Rational(numeric::BigInt(1), numeric::BigInt(2));
  spec.limits.min_improvement = 1.0;  // aggressive pruning drains fast
  const exp::SearchRunResult result = exp::run_search(spec, {});
  EXPECT_TRUE(result.bnb.exhausted);
  EXPECT_EQ(result.bnb.open_boxes, 0u);
  EXPECT_TRUE(result.bnb.incumbent.found);
  const Json certificate = result.certificate(spec);
  EXPECT_TRUE(certificate.at("search").at("frontier_bound").is_null());
  EXPECT_TRUE(certificate.at("search").at("complete").as_bool());
}

// ------------------------------------------------- Theorem 4.1 rediscovery --

TEST(Search, S2NearMissRediscoversAdversarialClearance) {
  // Acceptance: the committed S2 near-miss scenario must find a boundary
  // configuration within the committed clearance bound — far closer to
  // rendezvous than the analytic adversary's defeating margin, showing the
  // search probes the same manifold Theorem 4.1 diagonalizes over.
  const SearchSpec spec = SearchSpec::load(scenario_path("search_s2_near_miss.json"));
  const exp::SearchRunResult result = exp::run_search(spec, {});
  ASSERT_TRUE(result.bnb.incumbent.found);
  const Evaluation& best = result.bnb.incumbent.evaluation;

  // The analytic counterexample, simulated under the very same engine
  // config (its clearance is the margin by which AURV misses).
  const sim::AlgorithmFactory aurv = [] { return core::almost_universal_rv(); };
  core::AdversaryConfig adversary;
  adversary.analysis_horizon = 4096;
  adversary.r = 1.0;
  adversary.t = 2;
  adversary.lateral_offset = 1.4;
  const core::AdversaryReport report = core::construct_s2_counterexample(aurv, adversary);
  const sim::SimResult defeat = sim::Engine(report.instance, spec.engine).run(aurv);
  EXPECT_FALSE(defeat.met);
  const double adversary_clearance = defeat.min_distance_seen - report.instance.r();

  constexpr double kCommittedClearanceBound = 0.05;  // also quoted in the spec file
  EXPECT_GT(best.clearance, 0.0);  // a true near-miss, not a rendezvous
  EXPECT_LE(best.clearance, kCommittedClearanceBound);
  EXPECT_LT(best.clearance, adversary_clearance / 4.0);
}

}  // namespace
}  // namespace aurv::search
