// Gather-side search tests: the gather-tuple space's point-to-configuration
// mapping, the max-gather-time objective (pairing rules, the shifted-frames
// reachability prune and its soundness), branch-and-bound determinism on a
// gathering search, and the Section 5 distinct-radii dimensions — r_a/r_b
// as searchable axes with the feasibility prune generalized to min(r_a, r_b).
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>

#include "test_paths.hpp"
#include "exp/registry.hpp"
#include "exp/scenario.hpp"
#include "exp/search_driver.hpp"
#include "search/bnb.hpp"
#include "search/objective.hpp"

namespace aurv::search {
namespace {

using exp::SearchSpec;
using numeric::Rational;
using search::BnbOptions;
using support::Json;
using testpaths::scenario_path;
using testpaths::slurp;
using testpaths::temp_path;

constexpr double kInf = std::numeric_limits<double>::infinity();

SearchSpace gather_space() {
  SearchSpace space;
  space.family = SearchSpace::Family::GatherTuple;
  space.dim_names = {"spread", "delay"};
  space.fixed = {{"n", Rational(3)}, {"r", Rational(1)}, {"policy", Rational(0)}};
  return space;
}

/// A fast gather-tuple max-gather-time spec for the determinism tests.
SearchSpec gather_search_spec() {
  SearchSpec spec;
  spec.name = "test_gather_search";
  spec.algorithm = "latecomers";
  spec.objective = "max-gather-time";
  spec.space = gather_space();
  spec.box = {Interval{Rational::from_string("1/2"), Rational(4)},
              Interval{Rational(0), Rational(3)}};
  spec.limits.max_boxes = 64;
  spec.limits.wave_size = 8;
  spec.limits.min_width = Rational(numeric::BigInt(1), numeric::BigInt(16));
  spec.engine.max_events = 400'000;
  spec.engine.horizon = Rational(256);
  return spec;
}

// ------------------------------------------------------------------ space --

TEST(GatherSpace, MapsPointsToStaggeredChains) {
  SearchSpace space;
  space.family = SearchSpace::Family::GatherTuple;
  space.dim_names = {"spread", "delay"};
  space.fixed = {{"n", Rational(4)}, {"r", Rational(2)}};
  space.validate();

  const std::vector<Rational> point = {Rational(2), Rational::from_string("3/2")};
  const agents::GatherInstance instance = space.gather_instance_at(point);
  EXPECT_EQ(instance.r, 2.0);
  ASSERT_EQ(instance.n(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(instance.agents[k].start.x, 2.0 * static_cast<double>(k));
    EXPECT_EQ(instance.agents[k].start.y, 0.0);
    EXPECT_EQ(instance.agents[k].wake,
              Rational::from_string("3/2") * Rational(static_cast<long long>(k)));
  }
  EXPECT_TRUE(space.synchronous());  // the restricted model is synchronous

  // The two-agent accessor has no meaning here (and vice versa).
  EXPECT_THROW((void)space.instance_at(point), std::logic_error);
  SearchSpace tuple;
  tuple.dim_names = {"t"};
  EXPECT_THROW((void)tuple.gather_instance_at({Rational(1)}), std::logic_error);
}

TEST(GatherSpace, PolicyCoordinateAndAgentCountSemantics) {
  SearchSpace space = gather_space();
  space.dim_names = {"spread", "delay", "policy"};
  space.fixed = {{"n", Rational(3)}, {"r", Rational(1)}};
  space.validate();

  const auto policy_at = [&](const char* text) {
    return space.gather_policy_at(
        {Rational(2), Rational(2), Rational::from_string(text)});
  };
  EXPECT_EQ(policy_at("0"), gather::StopPolicy::FirstSight);
  EXPECT_EQ(policy_at("1/4"), gather::StopPolicy::FirstSight);
  EXPECT_EQ(policy_at("1/2"), gather::StopPolicy::AllVisible);
  EXPECT_EQ(policy_at("1"), gather::StopPolicy::AllVisible);

  // n: floor, clamped to [1, kMaxGatherAgents]; exact at integers.
  SearchSpace counted = gather_space();
  counted.dim_names = {"n"};
  counted.fixed = {{"r", Rational(1)}, {"spread", Rational(2)}, {"delay", Rational(2)}};
  EXPECT_EQ(counted.gather_instance_at({Rational::from_string("5/2")}).n(), 2u);
  EXPECT_EQ(counted.gather_instance_at({Rational(3)}).n(), 3u);
  EXPECT_EQ(counted.gather_instance_at({Rational(1000)}).n(),
            static_cast<std::size_t>(SearchSpace::kMaxGatherAgents));
  EXPECT_EQ(counted.gather_instance_at({Rational(-7)}).n(), 1u);

  // Negative wake delays have no model meaning.
  SearchSpace delayed = gather_space();
  EXPECT_THROW((void)delayed.gather_instance_at({Rational(2), Rational(-1)}),
               std::invalid_argument);
}

// -------------------------------------------------------------- objective --

TEST(GatherObjective, PairsOnlyWithTheGatherFamily) {
  const AlgorithmResolverFn resolver = exp::resolve_algorithm("latecomers");
  SearchSpace tuple;
  tuple.dim_names = {"t"};
  EXPECT_THROW((void)make_objective("max-gather-time", tuple, resolver, {}),
               std::invalid_argument);
  for (const char* name : {"max-meet-time", "near-miss", "boundary-distance"}) {
    EXPECT_THROW((void)make_objective(name, gather_space(), resolver, {}),
                 std::invalid_argument)
        << name;
  }
  // The gathering model has one common radius; per-agent overrides are a
  // two-agent Section 5 construct.
  sim::EngineConfig distinct;
  distinct.r_a = 2.0;
  EXPECT_THROW((void)make_objective("max-gather-time", gather_space(), resolver, distinct),
               std::invalid_argument);
}

TEST(GatherObjective, ReachabilityBoundPrunesChainsThatNeverClose) {
  sim::EngineConfig config;
  config.max_events = 400'000;
  config.horizon = Rational(256);
  const auto objective = make_objective("max-gather-time", gather_space(),
                                        exp::resolve_algorithm("latecomers"), config);

  // spread - delay > r everywhere: adjacent gaps can never reach the sight
  // radius (1-Lipschitz trajectories in shifted frames), no freeze ever
  // happens, and the diameter floor exceeds both success diameters.
  const ParamBox never({Interval{Rational(3), Rational(4)},
                        Interval{Rational(0), Rational::from_string("1/2")}});
  EXPECT_EQ(objective->bound(never), -kInf);
  // Soundness: every point in the pruned box indeed fails to gather.
  for (const auto& point :
       {std::vector<Rational>{Rational(3), Rational(0)},
        std::vector<Rational>{Rational(4), Rational::from_string("1/2")},
        std::vector<Rational>{Rational::from_string("7/2"), Rational::from_string("1/4")}}) {
    const Evaluation evaluation = objective->evaluate(point);
    EXPECT_FALSE(evaluation.met) << evaluation.instance;
    EXPECT_EQ(evaluation.score, -1.0);
  }

  // A funnel box (delay > spread) cannot be pruned; the horizon caps it and
  // over-estimates every inside evaluation.
  const ParamBox funnel({Interval{Rational(1), Rational(2)},
                         Interval{Rational(2), Rational(3)}});
  EXPECT_GE(objective->bound(funnel), 256.0);
  // spread 3/2 keeps the chain out of initial contact (adjacent gap > r),
  // so the gather time is genuinely positive.
  const Evaluation gathered =
      objective->evaluate({Rational::from_string("3/2"), Rational(2)});
  EXPECT_TRUE(gathered.met);
  EXPECT_GT(gathered.score, 0.0);
  EXPECT_LE(gathered.score, objective->bound(funnel));
}

TEST(GatherObjective, BoxesContainingASingleAgentAreNeverPruned) {
  // n = 1 is trivially gathered (score 0): the chain argument needs a pair,
  // so a box whose n interval reaches below 2 must survive any spread/delay.
  SearchSpace space = gather_space();
  space.dim_names = {"n"};
  space.fixed = {{"r", Rational(1)}, {"spread", Rational(10)}, {"delay", Rational(0)},
                 {"policy", Rational(0)}};
  sim::EngineConfig config;
  config.horizon = Rational(64);
  const auto objective = make_objective("max-gather-time", space,
                                        exp::resolve_algorithm("latecomers"), config);
  const ParamBox with_singleton({Interval{Rational(1), Rational(2)}});
  EXPECT_GT(objective->bound(with_singleton), -kInf);
  const Evaluation trivial = objective->evaluate({Rational(1)});
  EXPECT_TRUE(trivial.met);
  EXPECT_EQ(trivial.score, 0.0);

  // The same spread/delay with n pinned at >= 2 *is* pruned.
  const ParamBox pair_only({Interval{Rational(2), Rational(3)}});
  EXPECT_EQ(objective->bound(pair_only), -kInf);
}

// ------------------------------------------------- distinct radii (S5) ----

TEST(DistinctRadii, SearchedPerAgentRadiiReachTheEngine) {
  // x = 5, t = 0, instance r = 1: infeasible as-is (t < dist - r), but a
  // searched (r_a, r_b) point large enough to cover the gap meets at once.
  SearchSpace space;
  space.chi = +1;
  space.dim_names = {"r_a", "r_b"};
  space.fixed = {{"r", Rational(1)}, {"x", Rational(5)}, {"y", Rational(0)},
                 {"phi", Rational(0)}, {"t", Rational(0)}};
  sim::EngineConfig config;
  config.max_events = 400'000;
  config.horizon = Rational(64);
  const auto objective =
      make_objective("max-meet-time", space, exp::resolve_algorithm("aurv"), config);

  const Evaluation wide = objective->evaluate({Rational(6), Rational(6)});
  EXPECT_TRUE(wide.met);  // initial distance 5 < min(r_a, r_b) = 6
  const Evaluation narrow = objective->evaluate({Rational(1), Rational(1)});
  EXPECT_FALSE(narrow.met);  // back on the infeasible instance
}

TEST(DistinctRadii, FeasibilityPruneUsesTheMinimumRadius) {
  // Fixed geometry x = 5, t = 0, phi = 0, chi = +1 throughout; only the
  // radii move. The Theorem 3.1 slack is t - (dist - r) with r the
  // *rendezvous* radius min(r_a, r_b).
  const auto objective_with = [](std::vector<std::pair<std::string, Rational>> fixed,
                                 sim::EngineConfig config) {
    SearchSpace space;
    space.chi = +1;
    space.dim_names = {"t"};
    fixed.emplace_back("x", Rational(5));
    fixed.emplace_back("y", Rational(0));
    fixed.emplace_back("phi", Rational(0));
    space.fixed = std::move(fixed);
    config.horizon = Rational(64);
    return make_objective("max-meet-time", space, exp::resolve_algorithm("aurv"),
                          std::move(config));
  };
  const ParamBox low_t({Interval{Rational(0), Rational(1)}});

  // Instance r = 1: slack <= 1 - (5 - 1) < 0 -> pruned.
  EXPECT_EQ(objective_with({{"r", Rational(1)}}, {})->bound(low_t), -kInf);

  // Same instance r but generous per-agent overrides (min = 6 > dist):
  // feasible, must NOT be pruned.
  EXPECT_GT(objective_with({{"r", Rational(1)}, {"r_a", Rational(6)}, {"r_b", Rational(6)}},
                           {})
                ->bound(low_t),
            -kInf);

  // Feasible instance r = 6, but one far-sighted and one near-sighted agent
  // (min = 1): rendezvous needs distance <= 1, provably unreachable ->
  // pruned. This is exactly the min(r_a, r_b) generalization.
  EXPECT_EQ(objective_with({{"r", Rational(6)}, {"r_a", Rational(6)}, {"r_b", Rational(1)}},
                           {})
                ->bound(low_t),
            -kInf);

  // Engine-config overrides (not space-pinned) participate the same way.
  sim::EngineConfig engine_override;
  engine_override.r_a = 6.0;
  engine_override.r_b = 1.0;
  EXPECT_EQ(objective_with({{"r", Rational(6)}}, engine_override)->bound(low_t), -kInf);
}

TEST(DistinctRadii, NearMissBoundTracksTheSearchedMinimumRadius) {
  SearchSpace space;
  space.chi = +1;
  space.dim_names = {"r_b"};
  space.fixed = {{"r", Rational(1)}, {"x", Rational(3)}, {"y", Rational(0)},
                 {"phi", Rational(0)}, {"t", Rational(4)}};
  sim::EngineConfig config;
  config.r_a = 3.0;
  const auto objective =
      make_objective("near-miss", space, exp::resolve_algorithm("aurv"), config);
  // -(clearance) <= min(r_a, r_b) <= min(3, 2) over the box.
  const ParamBox box({Interval{Rational(1), Rational(2)}});
  EXPECT_LE(objective->bound(box), 2.0 + 1e-6);
  EXPECT_GE(objective->bound(box), 2.0);
}

TEST(DistinctRadii, TupleSpecRoundTripsRadiusDimensions) {
  SearchSpec spec;
  spec.name = "distinct_radii";
  spec.algorithm = "aurv";
  spec.objective = "max-meet-time";
  spec.space.chi = +1;
  spec.space.dim_names = {"r_a", "r_b", "t"};
  spec.space.fixed = {{"r", Rational(1)}, {"x", Rational(3)}, {"y", Rational(0)},
                      {"phi", Rational(0)}};
  spec.box = {Interval{Rational::from_string("1/2"), Rational(2)},
              Interval{Rational::from_string("1/2"), Rational(2)},
              Interval{Rational(0), Rational(4)}};
  spec.engine.horizon = Rational(64);
  const SearchSpec reloaded = SearchSpec::from_json(spec.to_json());
  EXPECT_EQ(reloaded.to_json(), spec.to_json());
  EXPECT_EQ(reloaded.space.dim_names, spec.space.dim_names);
}

TEST(GatherSearch, SpecLoadRejectsBoxesTheChainMappingCannotEvaluate) {
  // gather_instance_at throws on negative delays and the engine on r <= 0;
  // such boxes must be refused at load time, not from a worker shard
  // halfway through the search.
  SearchSpec negative_delay = gather_search_spec();
  negative_delay.box[1] = Interval{Rational(-1), Rational(3)};
  EXPECT_THROW((void)SearchSpec::from_json(negative_delay.to_json()), std::invalid_argument);

  SearchSpec zero_radius = gather_search_spec();
  zero_radius.space.fixed = {{"n", Rational(3)}, {"r", Rational(0)}, {"policy", Rational(0)}};
  EXPECT_THROW((void)SearchSpec::from_json(zero_radius.to_json()), std::invalid_argument);
}

// ------------------------------------------------------------ determinism --

TEST(GatherSearch, CertificateAndIncumbentLogAreShardCountInvariant) {
  const SearchSpec spec = gather_search_spec();
  const std::string log_1 = temp_path("gather_inc_1.jsonl");
  const std::string log_4 = temp_path("gather_inc_4.jsonl");

  BnbOptions serial;
  serial.max_shards = 1;
  serial.incumbent_log_path = log_1;
  BnbOptions parallel;
  parallel.max_shards = 4;
  parallel.incumbent_log_path = log_4;

  const Json cert_1 = exp::run_search(spec, serial).certificate(spec);
  const Json cert_4 = exp::run_search(spec, parallel).certificate(spec);
  EXPECT_EQ(cert_1.dump(2), cert_4.dump(2));
  EXPECT_EQ(slurp(log_1), slurp(log_4));

  const Json& incumbent = cert_1.at("search").at("incumbent");
  ASSERT_FALSE(incumbent.is_null());
  EXPECT_GT(incumbent.at("score").as_number(), 0.0);  // something gathers in the box
  (void)incumbent.at("point").at("spread");
  (void)incumbent.at("point").at("delay");
}

TEST(GatherSearch, CheckpointResumeMatchesOneShot) {
  const SearchSpec spec = gather_search_spec();
  const std::string checkpoint = temp_path("gather_search_ck.json");
  const std::string log = temp_path("gather_search_inc.jsonl");
  const std::string log_oneshot = temp_path("gather_search_inc_oneshot.jsonl");
  std::filesystem::remove(checkpoint);

  BnbOptions oneshot;
  oneshot.max_shards = 4;
  oneshot.incumbent_log_path = log_oneshot;
  const Json expected = exp::run_search(spec, oneshot).certificate(spec);

  BnbOptions interrupted;
  interrupted.max_shards = 4;
  interrupted.incumbent_log_path = log;
  interrupted.checkpoint_path = checkpoint;
  interrupted.checkpoint_every = 1;
  interrupted.max_waves = 3;
  const exp::SearchRunResult partial = exp::run_search(spec, interrupted);
  EXPECT_FALSE(partial.bnb.complete());

  BnbOptions resume = interrupted;
  resume.max_waves = 0;
  resume.resume = true;
  resume.max_shards = 1;  // resume on a different worker count, same result
  const exp::SearchRunResult finished = exp::run_search(spec, resume);
  EXPECT_TRUE(finished.bnb.complete());
  EXPECT_EQ(finished.certificate(spec).dump(2), expected.dump(2));
  EXPECT_EQ(slurp(log), slurp(log_oneshot));
}

TEST(GatherSearch, SpilledFrontierIsByteIdenticalToInMemory) {
  // The gather-tuple oracle through the spill-to-disk frontier: a run
  // whose cold frontier tail lives in JSONL segments must certify the
  // same worst chain, byte for byte, as the all-in-memory run.
  const SearchSpec spec = gather_search_spec();
  const std::string log_mem = temp_path("gather_spill_mem.jsonl");
  const std::string log_disk = temp_path("gather_spill_disk.jsonl");
  const std::string spill_dir = temp_path("gather_spill_dir");
  std::filesystem::remove_all(spill_dir);

  BnbOptions in_memory;
  in_memory.max_shards = 2;
  in_memory.incumbent_log_path = log_mem;
  BnbOptions spilled = in_memory;
  spilled.incumbent_log_path = log_disk;
  spilled.spill_dir = spill_dir;
  spilled.frontier_mem = 2;

  const exp::SearchRunResult mem = exp::run_search(spec, in_memory);
  const exp::SearchRunResult disk = exp::run_search(spec, spilled);
  EXPECT_EQ(mem.certificate(spec).dump(2), disk.certificate(spec).dump(2));
  EXPECT_EQ(slurp(log_mem), slurp(log_disk));
  EXPECT_GT(disk.bnb.frontier_spilled, 0u) << "frontier_mem=2 must actually spill";
}

TEST(GatherSearch, CommittedScenarioRunsToACompleteCertificate) {
  const SearchSpec spec = SearchSpec::load(scenario_path("search_gather_worst.json"));
  BnbOptions options;
  options.max_shards = 2;
  const exp::SearchRunResult result = exp::run_search(spec, options);
  EXPECT_TRUE(result.bnb.complete());
  ASSERT_TRUE(result.bnb.incumbent.found);
  // The worst chain found must genuinely gather, slower than trivially.
  EXPECT_GT(result.bnb.incumbent.score, 1.0);
  EXPECT_GT(result.bnb.stats.pruned, 0u);  // the reachability bound fires
}

}  // namespace
}  // namespace aurv::search
