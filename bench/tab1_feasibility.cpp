// TAB-1 — the Theorem 3.1 validation table: a structured sweep over all
// eight instance parameters, cross-checking the feasibility classifier
// against simulation ground truth:
//   * feasible & covered  -> AlmostUniversalRV meets within the budget;
//   * boundary (S1/S2)    -> the dedicated algorithm meets at distance ~ r;
//   * infeasible          -> the analytic lower bound on the distance holds
//                            throughout a long simulation.
#include <cmath>
#include <map>
#include <random>
#include <string>

#include "algo/boundary.hpp"
#include "agents/sampler.hpp"
#include "bench_util.hpp"
#include "sim/batch.hpp"
#include "core/almost_universal.hpp"
#include "core/feasibility.hpp"
#include "geom/angle.hpp"
#include "sim/engine.hpp"

int main() {
  using namespace aurv;
  using agents::Instance;
  using core::InstanceKind;
  using numeric::Rational;
  bench::header("TAB-1: Theorem 3.1 — feasibility characterization vs simulation",
                "Classifier verdicts cross-checked against simulated outcomes.");

  std::mt19937_64 rng(2020);
  std::uniform_real_distribution<double> lateral(0.2, 1.0);
  std::uniform_real_distribution<double> angle(0.1, geom::kTwoPi - 0.1);

  std::map<std::string, int> census;
  int checked = 0;
  int agreements = 0;

  bench::section("sweep (classification census over 600 structured instances)");
  for (int k = 0; k < 600; ++k) {
    const int chi = (k % 2 == 0) ? 1 : -1;
    const double phi = (k % 3 == 0) ? 0.0 : angle(rng);
    const Rational tau = (k % 5 == 0) ? Rational::from_string("3/2") : Rational(1);
    const Rational v = (k % 7 == 0) ? Rational(2) : Rational(1);
    const double r = 0.5 + 0.25 * (k % 3);
    const geom::Vec2 along = geom::unit_vector(phi / 2.0);
    const geom::Vec2 b =
        (1.0 + (k % 4)) * 0.8 * along + lateral(rng) * along.perp();
    const Rational t = Rational(k % 5);
    const Instance instance(r, b, phi, tau, v, t, chi);
    census[core::to_string(core::classify(instance).kind)]++;
  }
  for (const auto& [kind, count] : census) bench::row("%-18s %d", kind.c_str(), count);

  const auto check = [&](const Instance& instance, const char* expected_kind) {
    const core::Classification c = core::classify(instance, 1e-9);
    ++checked;
    sim::EngineConfig config;
    config.max_events = 20'000'000;
    bool ok = false;
    std::string observed;
    std::string detail;
    char buffer[64];
    if (c.kind == InstanceKind::Infeasible) {
      config.max_events = 1'000'000;
      const sim::SimResult result =
          sim::Engine(instance, config).run([] { return core::almost_universal_rv(); });
      const double lower_bound =
          instance.chi() == 1
              ? instance.initial_distance() - instance.t_d()
              : instance.projection_distance() - instance.t_d();
      ok = !result.met && result.min_distance_seen >= lower_bound - 1e-6;
      observed = "no-meet";
      std::snprintf(buffer, sizeof buffer, "min=%.3f>=%.3f", result.min_distance_seen,
                    lower_bound);
      detail = buffer;
    } else if (c.kind == InstanceKind::BoundaryS1 || c.kind == InstanceKind::BoundaryS2) {
      const bool s2 = c.kind == InstanceKind::BoundaryS2;
      const sim::SimResult result = sim::Engine(instance, config).run([&instance, s2] {
        return s2 ? algo::boundary_s2_algorithm(instance)
                  : algo::boundary_s1_algorithm(instance);
      });
      ok = result.met && std::fabs(result.final_distance - instance.r()) < 1e-5;
      observed = result.met ? "meet@r" : "no-meet";
      std::snprintf(buffer, sizeof buffer, "dist=%.6f", result.final_distance);
      detail = buffer;
    } else {
      const sim::SimResult result =
          sim::Engine(instance, config).run([] { return core::almost_universal_rv(); });
      ok = result.met;
      observed = result.met ? "meet" : "no-meet";
      std::snprintf(buffer, sizeof buffer, "t=%.3f", result.meet_time);
      detail = buffer;
    }
    if (ok) ++agreements;
    bench::row("%-16s %-10s %-12s %-14s %-8s", core::to_string(c.kind).c_str(), expected_kind,
               observed.c_str(), detail.c_str(), ok ? "yes" : "NO");
  };

  // Randomized per-region sweeps (sampler-drawn, simulated in parallel):
  // every covered draw must meet, every infeasible draw must respect the
  // analytic closest-approach bound.
  bench::section("randomized sweeps (40 draws per region, parallel)");
  {
    agents::SampleRng sweep_rng(99);
    std::vector<Instance> covered;
    for (int k = 0; k < 10; ++k) covered.push_back(agents::sample_type1(sweep_rng));
    for (int k = 0; k < 10; ++k) covered.push_back(agents::sample_type2(sweep_rng));
    for (int k = 0; k < 10; ++k) covered.push_back(agents::sample_type3(sweep_rng));
    for (int k = 0; k < 10; ++k) covered.push_back(agents::sample_type4(sweep_rng));
    sim::EngineConfig sweep_config;
    sweep_config.max_events = 30'000'000;
    const std::vector<sim::SimResult> met = sim::run_sweep(
        covered, [] { return core::almost_universal_rv(); }, sweep_config);
    int meets = 0;
    for (const sim::SimResult& result : met) meets += result.met ? 1 : 0;
    bench::row("covered draws meeting      : %d/40 (expected 40)", meets);

    std::vector<Instance> infeasible;
    for (int k = 0; k < 40; ++k) infeasible.push_back(agents::sample_infeasible(sweep_rng));
    sim::EngineConfig inf_config;
    inf_config.max_events = 300'000;
    const std::vector<sim::SimResult> blocked = sim::run_sweep(
        infeasible, [] { return core::almost_universal_rv(); }, inf_config);
    int bound_ok = 0;
    for (std::size_t k = 0; k < infeasible.size(); ++k) {
      const double bound = infeasible[k].chi() == 1
                               ? infeasible[k].initial_distance() - infeasible[k].t_d()
                               : infeasible[k].projection_distance() - infeasible[k].t_d();
      if (!blocked[k].met && blocked[k].min_distance_seen >= bound - 1e-6) ++bound_ok;
    }
    bench::row("infeasible draws respecting bound: %d/40 (expected 40)", bound_ok);
    if (meets != 40 || bound_ok != 40) {
      bench::row("  !! randomized sweep disagreement");
    }
  }

  bench::section("deterministic representatives (simulation cross-check)");
  bench::row("%-16s %-10s %-12s %-14s %-8s", "kind", "expected", "observed", "detail", "ok");
  // One representative per region of the characterization.
  check(Instance::synchronous(2.0, {1.0, 0.5}, 0.0, 0, 1), "trivial");
  check(Instance::synchronous(1.0, {2.0, 0.6}, 0.0, Rational::from_string("3/2"), -1),
        "type-1");
  check(Instance::synchronous(1.0, {1.5, 0.0}, 0.0, 1, 1), "type-2");
  check(Instance(1.0, {2.0, 0.5}, 0.3, 2, 1, 0, 1), "type-3");
  check(Instance::synchronous(0.8, {2.0, 0.0}, geom::kPi / 2, 0, 1), "type-4");
  check(Instance(0.8, {1.5, 0.0}, 0.0, 1, 2, 0, 1), "type-4");
  check(Instance::synchronous(1.0, {3.0, 4.0}, 0.0, 4, 1), "S1");
  check(Instance::synchronous(1.0, {4.0, 1.0}, 0.0, 3, -1), "S2");
  check(Instance::synchronous(1.0, {4.0, 0.0}, 0.0, 1, 1), "infeasible");
  check(Instance::synchronous(1.0, {5.0, 0.8}, 0.0, 2, -1), "infeasible");

  std::printf("\nagreement: %d/%d regions validated\n", agreements, checked);
  return agreements == checked ? 0 : 1;
}
