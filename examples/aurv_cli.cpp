// aurv_cli — command-line driver for the library: classify instances, run
// any of the implemented algorithms on them, or build adversarial boundary
// instances, without writing C++.
//
//   aurv_cli classify  r x y phi tau v t chi
//   aurv_cli run       r x y phi tau v t chi [algorithm] [max_events]
//   aurv_cli adversary s1|s2 [algorithm]
//
//   algorithms: aurv (default) | latecomers | cgkk | cgkk-ext |
//               wait-and-search | boundary | recommended
//   tau, v, t accept exact rationals ("3/2"); phi is radians. All numeric
//   arguments are parsed strictly: malformed input is an error, not 0.
//
// Examples:
//   aurv_cli classify 1 3 4 0 1 1 4 1          # the S1 boundary
//   aurv_cli run 1 2 0.6 0 1 1 3/2 -1          # type-1 rendezvous via AURV
//   aurv_cli run 1 3 4 0 1 1 4 1 boundary      # dedicated S1 algorithm
//   aurv_cli adversary s2 latecomers           # defeat Latecomers on S2
//
// Scenario files (campaigns, gathering censuses, searches) run through
// aurv_sweep.
#include <cstdio>
#include <cstring>
#include <string>

#include "algo/boundary.hpp"
#include "core/adversary.hpp"
#include "core/feasibility.hpp"
#include "exp/registry.hpp"
#include "sim/engine.hpp"
#include "support/parse.hpp"

namespace {

using namespace aurv;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s classify  r x y phi tau v t chi\n"
               "  %s run       r x y phi tau v t chi [algorithm] [max_events]\n"
               "  %s adversary s1|s2 [algorithm]\n"
               "algorithms: aurv | latecomers | cgkk | cgkk-ext | wait-and-search |"
               " boundary | recommended\n",
               argv0, argv0, argv0);
  return 2;
}

agents::Instance parse_instance(char** argv) {
  return agents::Instance(
      support::parse_double(argv[0], "r"),
      geom::Vec2{support::parse_double(argv[1], "x"), support::parse_double(argv[2], "y")},
      support::parse_double(argv[3], "phi"), numeric::Rational::from_string(argv[4]),
      numeric::Rational::from_string(argv[5]), numeric::Rational::from_string(argv[6]),
      static_cast<int>(support::parse_int(argv[7], "chi")));
}

sim::AlgorithmFactory pick_algorithm(const std::string& name, const agents::Instance& instance) {
  return exp::resolve_algorithm(name)(instance);
}

void print_classification(const agents::Instance& instance) {
  const core::Classification c = core::classify(instance, 1e-9);
  std::printf("instance : %s\n", instance.to_string().c_str());
  std::printf("kind     : %s\n", core::to_string(c.kind).c_str());
  std::printf("clause   : %s\n", c.clause.c_str());
  std::printf("feasible : %s\ncovered  : %s\nslack    : %+.6g\n", c.feasible ? "yes" : "no",
              c.covered_by_aurv ? "yes" : "no", c.boundary_slack);
}

int cmd_classify(int argc, char** argv) {
  if (argc != 8) return usage("aurv_cli");
  print_classification(parse_instance(argv));
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 8 || argc > 10) return usage("aurv_cli");
  const agents::Instance instance = parse_instance(argv);
  const std::string algorithm = argc >= 9 ? argv[8] : "aurv";
  print_classification(instance);

  sim::EngineConfig config;
  config.max_events = argc >= 10 ? support::parse_uint(argv[9], "max_events") : 20'000'000;
  const sim::SimResult result =
      sim::Engine(instance, config).run(pick_algorithm(algorithm, instance));
  std::printf("algorithm: %s\n", algorithm.c_str());
  std::printf("result   : %s\n", sim::to_string(result.reason).c_str());
  if (result.met) {
    std::printf("meet time: %.6g\n", result.meet_time);
    std::printf("distance : %.9f\n", result.final_distance);
    std::printf("A at (%.4f, %.4f), B at (%.4f, %.4f)\n", result.a_position.x,
                result.a_position.y, result.b_position.x, result.b_position.y);
  } else {
    std::printf("closest  : %.6f\n", result.min_distance_seen);
  }
  std::printf("events   : %llu\n", static_cast<unsigned long long>(result.events));
  return result.met ? 0 : 1;
}

int cmd_adversary(int argc, char** argv) {
  if (argc < 1 || argc > 2) return usage("aurv_cli");
  const std::string set = argv[0];
  const std::string name = argc >= 2 ? argv[1] : "aurv";
  if (set != "s1" && set != "s2") return usage("aurv_cli");

  // The candidate must be instance-independent; dedicated/recommended make
  // no sense here.
  const agents::Instance dummy = agents::Instance::synchronous(1.0, {2, 0}, 0, 0, 1);
  const sim::AlgorithmFactory candidate = pick_algorithm(name, dummy);
  const core::AdversaryReport report = set == "s2"
                                           ? core::construct_s2_counterexample(candidate)
                                           : core::construct_s1_counterexample(candidate);
  std::printf("defeating %s instance for '%s':\n", set.c_str(), name.c_str());
  std::printf("  %s\n", report.instance.to_string().c_str());
  std::printf("  aimed direction %.6f rad, margin %.6f rad over %zu used directions\n",
              report.chosen_direction, report.angular_gap, report.directions_used);

  sim::EngineConfig config;
  config.horizon = numeric::Rational(4096);
  config.max_events = 8'000'000;
  const sim::SimResult defeat = sim::Engine(report.instance, config).run(candidate);
  std::printf("  candidate within horizon 4096: %s (closest %.6f > r = %.3f)\n",
              defeat.met ? "MET (unexpected)" : "no rendezvous", defeat.min_distance_seen,
              report.instance.r());
  const bool s2 = set == "s2";
  const sim::SimResult dedicated = sim::Engine(report.instance, {}).run([&report, s2] {
    return s2 ? algo::boundary_s2_algorithm(report.instance)
              : algo::boundary_s1_algorithm(report.instance);
  });
  std::printf("  dedicated algorithm: %s at distance %.9f\n",
              dedicated.met ? "meets" : "fails", dedicated.final_distance);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  try {
    if (std::strcmp(argv[1], "classify") == 0) return cmd_classify(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "run") == 0) return cmd_run(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "adversary") == 0) return cmd_adversary(argc - 2, argv + 2);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 3;
  }
  return usage(argv[0]);
}
