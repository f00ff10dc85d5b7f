// KERN — google-benchmark micro-kernels for the library's hot paths: exact
// rational time arithmetic, the closest-approach solver, instruction-stream
// generation, census sample seeding, and end-to-end simulator event
// throughput.
//
// Run with --json[=path] to additionally write a flat { name -> ns/op }
// baseline file (default BENCH_micro.json); see bench/bench_json.hpp.
#include <benchmark/benchmark.h>

#include <cstring>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "bench_json.hpp"

#include "agents/sampler.hpp"
#include "algo/cow_walk.hpp"
#include "core/almost_universal.hpp"
#include "algo/latecomers.hpp"
#include "gather/engine.hpp"
#include "geom/closest_approach.hpp"
#include "sim/batch.hpp"
#include "numeric/rational.hpp"
#include "program/combinators.hpp"
#include "sim/engine.hpp"

namespace {

using aurv::numeric::BigInt;
using aurv::numeric::Rational;

void BM_RationalAddSmall(benchmark::State& state) {
  const Rational a(BigInt(355), BigInt(113));
  const Rational b(BigInt(-22), BigInt(7));
  for (auto _ : state) {
    Rational c = a;
    c += b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_RationalAddSmall);

void BM_RationalAddSmallDyadic(benchmark::State& state) {
  // The engine's common case: event times and durations k / 2^i, inline.
  const Rational a = Rational::dyadic(1234567, 6);
  const Rational b = Rational::dyadic(-77, 3);
  for (auto _ : state) {
    Rational c = a;
    c += b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_RationalAddSmallDyadic);

void BM_RationalAddHuge(benchmark::State& state) {
  // The simulator's worst realistic case: a phase-5 wait boundary plus a
  // dyadic offset (hundreds of bits of integer part).
  const Rational a = Rational::pow2(375) + Rational::dyadic(3, 7);
  const Rational b = Rational::dyadic(5, 9);
  for (auto _ : state) {
    Rational c = a;
    c += b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_RationalAddHuge);

void BM_RationalCompareHuge(benchmark::State& state) {
  const Rational a = Rational::pow2(375) + Rational::dyadic(3, 7);
  const Rational b = Rational::pow2(375) + Rational::dyadic(5, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a < b);
  }
}
BENCHMARK(BM_RationalCompareHuge);

void BM_BigIntMul(benchmark::State& state) {
  const BigInt a = BigInt::pow2(static_cast<std::uint64_t>(state.range(0))) - BigInt(12345);
  const BigInt b = BigInt::pow2(static_cast<std::uint64_t>(state.range(0))) - BigInt(54321);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMul)->Arg(64)->Arg(256)->Arg(1024);

void BM_ClosestApproach(benchmark::State& state) {
  // The engine's per-window geometry: the closest point (no hypot) and the
  // first-contact solve.
  const aurv::geom::Vec2 offset{3.0, 4.0};
  const aurv::geom::Vec2 velocity{-1.0, -0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(aurv::geom::closest_point(offset, velocity, 10.0));
    benchmark::DoNotOptimize(aurv::geom::first_contact(offset, velocity, 1.0, 10.0));
  }
}
BENCHMARK(BM_ClosestApproach);

void BM_WindowCull(benchmark::State& state) {
  // The swept-disc bound the engine tries before that geometry: on
  // BM_ClosestApproach's window, which it cannot settle, and on the same
  // motion ten times farther out, which it settles. The predicate is
  // inline, so the inputs are laundered to keep it from folding away.
  aurv::geom::Vec2 near{3.0, 4.0};
  aurv::geom::Vec2 far{30.0, 40.0};
  aurv::geom::Vec2 velocity{-1.0, -0.5};
  double duration = 10.0;
  double floor = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(near);
    benchmark::DoNotOptimize(far);
    benchmark::DoNotOptimize(velocity);
    benchmark::DoNotOptimize(duration);
    benchmark::DoNotOptimize(floor);
    benchmark::DoNotOptimize(aurv::geom::stays_beyond(near, velocity, duration, floor));
    benchmark::DoNotOptimize(aurv::geom::stays_beyond(far, velocity, duration, floor));
  }
}
BENCHMARK(BM_WindowCull);

void BM_ContactPredicateMix(benchmark::State& state) {
  // One window per iteration from a seeded mix that reaches every exit of
  // first_contact and contact_interval in equal shares: already in
  // contact, receding, disk missed, contact past the window end, and a
  // hit inside the window (radius 1 throughout).
  struct Window {
    aurv::geom::Vec2 offset;
    aurv::geom::Vec2 velocity;
    double duration = 0.0;
  };
  std::mt19937_64 rng(2020);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Window> windows(1024);
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const aurv::geom::Vec2 toward = aurv::geom::unit_vector(2 * std::numbers::pi * unit(rng));
    const double distance = 2.0 + 6.0 * unit(rng);
    const double speed = 0.5 + 2.0 * unit(rng);
    const double reach = (distance - 1.0) / speed;  // head-on contact time
    Window& window = windows[k];
    window.offset = distance * toward;
    window.velocity = -speed * toward;
    window.duration = 2.0 * reach;
    switch (k % 5) {
      case 0:  // in contact
        window.offset = 0.9 * unit(rng) * toward;
        break;
      case 1:  // receding at a slant
        window.velocity = speed * (toward + (2.0 * unit(rng) - 1.0) * toward.perp());
        break;
      case 2:  // approaching at a slant that misses the disk (clearance >= 1.2)
        window.velocity = -speed * (0.8 * toward + 0.6 * toward.perp());
        break;
      case 3:  // head-on, but the window ends halfway to contact
        window.duration = 0.5 * reach;
        break;
      default:  // head-on hit inside the window
        break;
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const Window& window = windows[next];
    next = (next + 1) % windows.size();
    benchmark::DoNotOptimize(
        aurv::geom::first_contact(window.offset, window.velocity, 1.0, window.duration));
    benchmark::DoNotOptimize(
        aurv::geom::contact_interval(window.offset, window.velocity, 1.0, window.duration));
  }
}
BENCHMARK(BM_ContactPredicateMix);

void BM_PlanarCowWalkGeneration(benchmark::State& state) {
  const auto i = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    auto walk = aurv::algo::planar_cow_walk(i);
    while (walk.next()) ++instructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_PlanarCowWalkGeneration)->Arg(2)->Arg(4)->Arg(6);

void BM_TakeDurationSlicing(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(aurv::program::take_duration(
        aurv::core::almost_universal_rv(), Rational::pow2(8)));
  }
}
BENCHMARK(BM_TakeDurationSlicing);

void BM_AurvProgramStart(benchmark::State& state) {
  // What every engine run pays before its first events: a fresh Algorithm 1
  // stream and its first 64 instructions (all of phase 1's block 1), read
  // as rotated views over phase 1's warm shared walk.
  constexpr int kPulls = 64;
  auto warm = aurv::core::almost_universal_rv();
  for (int k = 0; k < kPulls; ++k) warm.next();
  for (auto _ : state) {
    auto program = aurv::core::almost_universal_rv();
    for (int k = 0; k < kPulls; ++k) {
      program.next();
      benchmark::DoNotOptimize(program.value());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kPulls);
}
BENCHMARK(BM_AurvProgramStart);

void BM_SampleStream(benchmark::State& state) {
  // A census's fixed cost per sample: the sample's stream, then one type-2
  // instance drawn from it, over consecutive samples as a shard visits them.
  std::uint64_t sample = 0;
  for (auto _ : state) {
    auto rng = aurv::agents::sample_stream(2020, sample++);
    benchmark::DoNotOptimize(aurv::agents::sample_type2(rng));
  }
}
BENCHMARK(BM_SampleStream);

void BM_GatherEngineThreeAgents(benchmark::State& state) {
  // Multi-agent window processing: O(n^2) pair checks per event.
  const std::vector<aurv::gather::GatherAgent> agents = {
      {{0.0, 0.0}, 0}, {{200.0, 0.0}, 1}, {{-200.0, 50.0}, 2}};
  std::uint64_t events = 0;
  for (auto _ : state) {
    aurv::gather::GatherConfig config;
    config.r = 0.5;
    config.max_events = static_cast<std::uint64_t>(state.range(0));
    const aurv::gather::GatherResult result =
        aurv::gather::GatherEngine(agents, config).run([] {
          return aurv::algo::latecomers();
        });
    events += result.events;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_GatherEngineThreeAgents)->Arg(10'000);

void BM_BatchSweepScaling(benchmark::State& state) {
  // Thread-pool scaling of the sweep runner on independent never-meeting
  // simulations.
  std::vector<aurv::agents::Instance> instances;
  for (int k = 0; k < 24; ++k) {
    instances.push_back(
        aurv::agents::Instance::synchronous(0.25, {300.0 + k, 0.0}, 0.0, 0, 1));
  }
  aurv::sim::EngineConfig config;
  config.max_events = 20'000;
  for (auto _ : state) {
    const auto results = aurv::sim::run_sweep(
        instances, [] { return aurv::core::almost_universal_rv(); }, config,
        static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 24 * 20'000);
}
BENCHMARK(BM_BatchSweepScaling)->Arg(1)->Arg(4)->Arg(16)->UseRealTime();

void BM_BatchSweepThousand(benchmark::State& state) {
  // The acceptance workload for numeric-stack optimizations: a sweep of
  // 1000 independent AlmostUniversalRV instances, auto-threaded. Dominated
  // by exact rational event arithmetic.
  std::vector<aurv::agents::Instance> instances;
  instances.reserve(1000);
  for (int k = 0; k < 1000; ++k) {
    instances.push_back(aurv::agents::Instance::synchronous(
        0.25, {300.0 + 0.25 * k, 0.0}, 0.0, 0, 1));
  }
  aurv::sim::EngineConfig config;
  config.max_events = 500;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto results = aurv::sim::run_sweep(
        instances, [] { return aurv::core::almost_universal_rv(); }, config, 0);
    for (const auto& result : results) events += result.events;
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_BatchSweepThousand)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_EngineEventThroughput(benchmark::State& state) {
  // A never-meeting symmetric instance driven by the full Algorithm 1:
  // measures end-to-end events/second of the exact-time engine.
  const aurv::agents::Instance instance =
      aurv::agents::Instance::synchronous(0.25, {500.0, 0.0}, 0.0, 0, 1);
  std::uint64_t events = 0;
  for (auto _ : state) {
    aurv::sim::EngineConfig config;
    config.max_events = static_cast<std::uint64_t>(state.range(0));
    const aurv::sim::SimResult result =
        aurv::sim::Engine(instance, config)
            .run([] { return aurv::core::almost_universal_rv(); });
    events += result.events;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EngineEventThroughput)->Arg(10'000)->Arg(100'000);

}  // namespace

int main(int argc, char** argv) {
  // Strip --json[=path] before handing the remaining flags to benchmark.
  bool json = false;
  std::string json_path = "BENCH_micro.json";
  int out = 1;
  for (int in = 1; in < argc; ++in) {
    if (std::strcmp(argv[in], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[in], "--json=", 7) == 0) {
      json = true;
      json_path = argv[in] + 7;
    } else {
      argv[out++] = argv[in];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (json) {
    aurv::bench::JsonCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    try {
      aurv::bench::write_json(json_path, reporter.results());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 1;
    }
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
