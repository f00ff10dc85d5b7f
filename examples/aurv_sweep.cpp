// aurv_sweep — campaign, census and search driver: execute a declarative
// scenario spec (scenarios/*.json) through the sharded campaign runner (a
// gathering census when the spec's kind is "gather-census"), or a search
// spec (scenarios/search_*.json) through the deterministic branch-and-bound.
//
//   aurv_sweep run <scenario.json> [options]
//       --threads N          worker threads (0 = hardware, default)
//       --out PATH           summary JSON artifact (default: stdout)
//       --jsonl PATH         per-run JSONL records, in job order
//       --checkpoint PATH    checkpoint file (enables --resume)
//       --checkpoint-every K checkpoint every K shards (default 64)
//       --resume             continue from the checkpoint; a missing,
//                            truncated or foreign checkpoint is refused
//                            with one structured stderr line (exit 5)
//       --shard-size K       jobs per shard (default 256)
//       --max-shards K       stop after K shards (incremental execution)
//       --quiet              no progress on stderr
//       --progress [SECS]    heartbeat: one JSON line on stderr every SECS
//                            seconds (bare flag = 10; 0 = off); each line
//                            names the active phase/span
//       --metrics-out PATH   end-of-run metrics snapshot (counters, timers,
//                            run manifest) as JSON
//       --trace-out PATH     structured span trace in Chrome Trace Event
//                            Format (open in Perfetto / chrome://tracing)
//       --status-port PORT   embedded HTTP status server on 127.0.0.1:PORT
//                            (0 = ephemeral; the chosen port is announced as
//                            one stderr JSON line): /metrics /status /healthz
//                            /trace — see EXPERIMENTS.md "Watching a live run"
//   aurv_sweep search <search.json> [options]
//       --max-shards N       parallel box evaluations per wave (0 = hardware;
//                            --threads is an alias); a worker cap, never a work
//                            limiter — it cannot change the result (bound work
//                            with --max-waves)
//       --out PATH           certificate JSON artifact (default: stdout)
//       --incumbent-log PATH incumbent-improvement JSONL, deterministic order
//       --provenance PATH    prune-provenance JSONL: one auditable decision
//                            record per popped box (byte-identical at any
//                            worker count and across resume); audit it with
//                            scripts/provenance_report.py
//       --checkpoint PATH    base checkpoint + per-wave delta journal
//                            (enables --resume)
//       --compact-every K    compact the wave journal into a fresh base
//                            every K waves (default 16; --checkpoint-every
//                            is an alias)
//       --resume             continue from the checkpoint; a missing,
//                            truncated or foreign checkpoint is refused
//                            with one structured stderr line (exit 5)
//       --max-waves K        stop after K waves (incremental execution)
//       --spill-dir PATH     spill the cold frontier tail to JSONL segment
//                            files in PATH (in-memory frontier otherwise);
//                            PATH belongs to this search alone, like the
//                            checkpoint file — use one directory per hunt
//       --frontier-mem N     max open boxes held in memory (needs
//                            --spill-dir; 0 = unbounded, default)
//       --spill-segments N   open segment files before a k-way merge
//                            compacts them (default 8)
//       --degraded-cap N     max open boxes held in memory after the spill
//                            directory goes unwritable/full and the
//                            frontier degrades to in-memory mode (0 =
//                            unbounded, default); past it the run fails
//                            with a structured error
//       --quiet              no progress on stderr
//       --progress [SECS]    heartbeat: one JSON line on stderr every SECS
//                            seconds (bare flag = 10; 0 = off); each line
//                            names the active phase/span
//       --metrics-out PATH   end-of-run metrics snapshot (counters, timers,
//                            run manifest) as JSON
//       --trace-out PATH     structured span trace in Chrome Trace Event
//                            Format (open in Perfetto / chrome://tracing)
//       --status-port PORT   embedded HTTP status server on 127.0.0.1:PORT
//                            (0 = ephemeral; the chosen port is announced as
//                            one stderr JSON line): /metrics /status /healthz
//                            /trace — see EXPERIMENTS.md "Watching a live run"
//
//       The spill/compaction flags are invocation-side: certificates,
//       incumbent logs and prune stats are byte-identical in-memory vs.
//       spilled, at any --max-shards, and across checkpoint/resume —
//       including runs whose spill directory failed mid-hunt (the
//       degradation is reported on stderr, never in the certificate).
//   aurv_sweep describe <spec.json>       parsed spec + first instances (either kind)
//   aurv_sweep list                       registered algorithms, samplers, objectives
//
// Summary and certificate artifacts are deterministic: identical at any
// --threads / --max-shards value, and identical whether the run completed
// in one go or across checkpoint/resume cycles.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "driver_telemetry.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/search_driver.hpp"
#include "gatherx/census.hpp"
#include "gatherx/scenario.hpp"
#include "search/objective.hpp"
#include "support/jsonl.hpp"
#include "support/parse.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace {

using namespace aurv;
namespace telemetry = support::telemetry;
using driver::TelemetryCli;
using driver::wall_ms_since;
using support::trace::Span;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  aurv_sweep run <scenario.json> [--threads N] [--out PATH] [--jsonl PATH]\n"
               "             [--checkpoint PATH] [--checkpoint-every K] [--resume]\n"
               "             [--shard-size K] [--max-shards K] [--quiet]\n"
               "             [--progress [SECS]] [--metrics-out PATH] [--trace-out PATH]\n"
               "             [--status-port PORT]\n"
               "  aurv_sweep search <search.json> [--max-shards N] [--out PATH]\n"
               "             [--incumbent-log PATH] [--provenance PATH]\n"
               "             [--checkpoint PATH] [--compact-every K]\n"
               "             [--resume] [--max-waves K] [--spill-dir PATH]\n"
               "             [--frontier-mem N] [--spill-segments N] [--degraded-cap N]\n"
               "             [--quiet] [--progress [SECS]] [--metrics-out PATH]\n"
               "             [--trace-out PATH] [--status-port PORT]\n"
               "  aurv_sweep describe <spec.json>\n"
               "  aurv_sweep list\n");
  return 2;
}

int cmd_list() {
  std::printf("algorithms:");
  for (const std::string& name : exp::algorithm_names()) std::printf(" %s", name.c_str());
  std::printf("\nsamplers:  ");
  for (const std::string& name : exp::sampler_names()) std::printf(" %s", name.c_str());
  std::printf("\ngather samplers:");
  for (const std::string& name : exp::gather_sampler_names()) std::printf(" %s", name.c_str());
  std::printf("\nobjectives:");
  for (const std::string& name : search::objective_names()) std::printf(" %s", name.c_str());
  std::printf("\n");
  return 0;
}

int cmd_describe(const std::string& path) {
  // One load + parse; campaign scenario specs have no top-level "kind" field.
  try {
    const support::Json json = support::Json::load_file(path);
    if (json.string_or("kind", "") == "search") {
      const exp::SearchSpec spec = exp::SearchSpec::from_json(json);
      std::printf("%s", spec.to_json().dump(2).c_str());
      const search::ParamBox root = spec.root_box();
      std::printf("root box width: %s\n", root.width().to_string().c_str());
      if (spec.space.family == search::SearchSpace::Family::GatherTuple) {
        const std::vector<numeric::Rational> midpoint = root.midpoint();
        std::printf("root midpoint:  %s policy=%s\n",
                    spec.space.gather_instance_at(midpoint).to_string().c_str(),
                    gather::to_string(spec.space.gather_policy_at(midpoint)).c_str());
      } else {
        std::printf("root midpoint:  %s\n",
                    spec.space.instance_at(root.midpoint()).to_string().c_str());
      }
      return 0;
    }
    if (json.string_or("kind", "") == "gather-census") {
      const gatherx::GatherScenarioSpec spec = gatherx::GatherScenarioSpec::from_json(json);
      std::printf("%s", spec.to_json().dump(2).c_str());
      std::printf("total jobs: %llu (x%zu policies)\n",
                  static_cast<unsigned long long>(spec.total_jobs()), spec.policies.size());
      const std::uint64_t preview = std::min<std::uint64_t>(3, spec.total_jobs());
      for (std::uint64_t job = 0; job < preview; ++job) {
        const agents::GatherInstance instance = gatherx::census_instance(spec, job);
        const bool funnel = instance.n() < 2 ||
                            gather::is_funnel_configuration(instance.agents, instance.r);
        std::printf("job %llu: %s funnel=%s\n", static_cast<unsigned long long>(job),
                    instance.to_string().c_str(), funnel ? "yes" : "no");
      }
      return 0;
    }
    const exp::ScenarioSpec spec = exp::ScenarioSpec::from_json(json);
    std::printf("%s", spec.to_json().dump(2).c_str());
    std::printf("total jobs: %llu\n", static_cast<unsigned long long>(spec.total_jobs()));
    const std::uint64_t preview = std::min<std::uint64_t>(3, spec.total_jobs());
    for (std::uint64_t job = 0; job < preview; ++job) {
      std::printf("job %llu: %s\n", static_cast<unsigned long long>(job),
                  exp::campaign_instance(spec, job).to_string().c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    throw std::invalid_argument(path + ": " + error.what());
  }
}

int cmd_search(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto started = std::chrono::steady_clock::now();
  const std::string spec_path = argv[0];
  exp::SearchOptions options;
  TelemetryCli telemetry_cli;
  std::string out_path;
  bool quiet = false;

  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    const auto value = [&]() -> std::string {
      if (k + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++k];
    };
    // --threads is accepted as an alias: both cap the workers per wave
    // (the campaign subcommand's spelling), and neither limits work —
    // that is --max-waves.
    if (flag == "--max-shards" || flag == "--threads")
      options.max_shards = support::parse_uint(value(), flag.c_str());
    else if (flag == "--out") out_path = value();
    else if (flag == "--incumbent-log") options.incumbent_log_path = value();
    else if (flag == "--provenance") options.provenance_path = value();
    else if (flag == "--checkpoint") options.checkpoint_path = value();
    // --checkpoint-every is the pre-delta-journal spelling, kept as an alias.
    else if (flag == "--compact-every" || flag == "--checkpoint-every")
      options.checkpoint_every = support::parse_uint(value(), flag.c_str());
    else if (flag == "--resume") options.resume = true;
    else if (flag == "--max-waves")
      options.max_waves = support::parse_uint(value(), "--max-waves");
    else if (flag == "--spill-dir") options.spill_dir = value();
    else if (flag == "--frontier-mem")
      options.frontier_mem = support::parse_uint(value(), "--frontier-mem");
    else if (flag == "--spill-segments")
      options.spill_max_segments = support::parse_uint(value(), "--spill-segments");
    else if (flag == "--degraded-cap")
      options.frontier_degraded_capacity = support::parse_uint(value(), "--degraded-cap");
    else if (flag == "--quiet") quiet = true;
    else if (telemetry_cli.parse(flag, k, argc, argv)) {}
    else {
      std::fprintf(stderr, "unknown option: %s\n", flag.c_str());
      return usage();
    }
  }

  telemetry_cli.open_trace();

  telemetry::Timer& load_timer = telemetry::registry().timer("phase.load");
  telemetry::Timer& run_timer = telemetry::registry().timer("phase.run");
  telemetry::Timer& emit_timer = telemetry::registry().timer("phase.emit");

  std::optional<exp::SearchSpec> loaded;
  {
    const Span span(load_timer, "load", "phase", {.announce = true});
    loaded.emplace(exp::SearchSpec::load(spec_path));
  }
  const exp::SearchSpec& spec = *loaded;
  support::Json config = support::Json::object();
  config.set("max_waves", support::Json(static_cast<std::uint64_t>(options.max_waves)));
  config.set("spill_dir", support::Json(options.spill_dir));
  config.set("frontier_mem", support::Json(static_cast<std::uint64_t>(options.frontier_mem)));
  config.set("resume", support::Json(options.resume));
  const telemetry::RunInfo identity = driver::run_info(
      "search", spec_path, spec.fingerprint(), options.max_shards, std::move(config));
  std::optional<telemetry::Heartbeat> heartbeat = telemetry_cli.start_heartbeat(identity);
  // Held to end of scope: scraping stays live through emit + metrics.
  const auto statusd = telemetry_cli.start_statusd(identity);
  if (!quiet) {
    options.progress = [](std::uint64_t evaluated, std::uint64_t open) {
      std::fprintf(stderr, "\r%llu boxes evaluated, %llu open   ",
                   static_cast<unsigned long long>(evaluated),
                   static_cast<unsigned long long>(open));
    };
  }

  std::optional<exp::SearchRunResult> run;
  {
    const Span span(run_timer, "run", "phase", {.announce = true});
    run.emplace(exp::run_search(spec, options));
  }
  const exp::SearchRunResult& result = *run;
  if (heartbeat.has_value()) heartbeat->stop();
  if (!quiet) {
    std::fprintf(stderr, "\r%llu boxes evaluated (%s)          \n",
                 static_cast<unsigned long long>(result.bnb.stats.evaluated),
                 result.bnb.exhausted        ? "frontier exhausted"
                 : result.bnb.budget_reached ? "box budget spent"
                                             : "stopped by --max-waves");
  }
  // Invocation-side only — the certificate is byte-identical regardless.
  if (result.bnb.frontier_degraded)
    std::fprintf(stderr, "warning: spill degraded to in-memory mode (%s)\n",
                 result.bnb.frontier_degradation.c_str());

  {
    const Span span(emit_timer, "emit", "phase", {.announce = true});
    const support::Json certificate = result.certificate(spec);
    if (out_path.empty()) {
      std::printf("%s", certificate.dump(2).c_str());
    } else {
      certificate.save_file(out_path);
      if (!quiet) std::fprintf(stderr, "certificate written to %s\n", out_path.c_str());
    }
  }
  // Seal the trace before the snapshot so its trace.* counters are final.
  telemetry_cli.close_trace(quiet);

  telemetry_cli.write_metrics(identity, wall_ms_since(started), quiet);

  return result.bnb.complete() ? 0 : 4;  // 4 = stopped early (max_waves)
}

int cmd_run(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto started = std::chrono::steady_clock::now();
  const std::string spec_path = argv[0];
  exp::CampaignOptions options;
  TelemetryCli telemetry_cli;
  std::string out_path;
  bool quiet = false;

  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    const auto value = [&]() -> std::string {
      if (k + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++k];
    };
    if (flag == "--threads") options.threads = support::parse_uint(value(), "--threads");
    else if (flag == "--out") out_path = value();
    else if (flag == "--jsonl") options.jsonl_path = value();
    else if (flag == "--checkpoint") options.checkpoint_path = value();
    else if (flag == "--checkpoint-every")
      options.checkpoint_every = support::parse_uint(value(), "--checkpoint-every");
    else if (flag == "--resume") options.resume = true;
    else if (flag == "--shard-size")
      options.shard_size = support::parse_uint(value(), "--shard-size");
    else if (flag == "--max-shards")
      options.max_shards = support::parse_uint(value(), "--max-shards");
    else if (flag == "--quiet") quiet = true;
    else if (telemetry_cli.parse(flag, k, argc, argv)) {}
    else {
      std::fprintf(stderr, "unknown option: %s\n", flag.c_str());
      return usage();
    }
  }

  telemetry_cli.open_trace();

  telemetry::Timer& load_timer = telemetry::registry().timer("phase.load");
  telemetry::Timer& run_timer = telemetry::registry().timer("phase.run");
  telemetry::Timer& emit_timer = telemetry::registry().timer("phase.emit");

  support::Json spec_json;
  {
    const Span span(load_timer, "load", "phase", {.announce = true});
    try {
      spec_json = support::Json::load_file(spec_path);
    } catch (const std::exception& error) {
      throw std::invalid_argument(spec_path + ": " + error.what());
    }
  }

  if (!quiet) {
    options.progress = [](std::uint64_t done, std::uint64_t total) {
      // One status line, overwritten in place; ~64 updates over the run.
      const std::uint64_t step = std::max<std::uint64_t>(1, total / 64);
      if (done % step < 256 || done == total)
        std::fprintf(stderr, "\r%llu/%llu jobs", static_cast<unsigned long long>(done),
                     static_cast<unsigned long long>(total));
    };
  }

  // The two sweep kinds share the whole invocation surface; only the spec
  // type and runner differ.
  const auto report = [&](std::uint64_t jobs, std::uint64_t jobs_run,
                          std::uint64_t resumed_shards, bool complete) {
    if (quiet) return;
    std::fprintf(stderr, "\r%llu/%llu jobs done (%llu run now%s)\n",
                 static_cast<unsigned long long>(
                     complete ? jobs : resumed_shards * options.shard_size + jobs_run),
                 static_cast<unsigned long long>(jobs),
                 static_cast<unsigned long long>(jobs_run),
                 resumed_shards > 0 ? ", resumed" : "");
  };
  const auto emit = [&](const support::Json& summary) {
    const Span span(emit_timer, "emit", "phase", {.announce = true});
    if (out_path.empty()) {
      std::printf("%s", summary.dump(2).c_str());
    } else {
      summary.save_file(out_path);
      if (!quiet) std::fprintf(stderr, "summary written to %s\n", out_path.c_str());
    }
  };
  const auto identity = [&](const char* kind, std::uint64_t fingerprint) {
    support::Json config = support::Json::object();
    config.set("shard_size", support::Json(static_cast<std::uint64_t>(options.shard_size)));
    config.set("checkpoint_every",
               support::Json(static_cast<std::uint64_t>(options.checkpoint_every)));
    config.set("resume", support::Json(options.resume));
    return driver::run_info(kind, spec_path, fingerprint, options.threads, std::move(config));
  };
  const auto write_metrics = [&](const telemetry::RunInfo& run) {
    // Seal the trace before the snapshot so its trace.* counters are final.
    telemetry_cli.close_trace(quiet);
    telemetry_cli.write_metrics(run, wall_ms_since(started), quiet);
  };

  if (spec_json.string_or("kind", "") == "gather-census") {
    gatherx::GatherScenarioSpec spec;
    try {
      spec = gatherx::GatherScenarioSpec::from_json(spec_json);
    } catch (const std::exception& error) {
      throw std::invalid_argument(spec_path + ": " + error.what());
    }
    const telemetry::RunInfo run_identity = identity("gather-census", spec.fingerprint());
    std::optional<telemetry::Heartbeat> heartbeat = telemetry_cli.start_heartbeat(run_identity);
    const auto statusd = telemetry_cli.start_statusd(run_identity);
    std::optional<gatherx::CensusResult> run;
    {
      const Span span(run_timer, "run", "phase", {.announce = true});
      run.emplace(gatherx::run_census(spec, options));
    }
    const gatherx::CensusResult& result = *run;
    if (heartbeat.has_value()) heartbeat->stop();
    report(result.jobs, result.jobs_run, result.resumed_shards, result.complete);
    emit(result.summary(spec));
    write_metrics(run_identity);
    return result.complete ? 0 : 4;  // 4 = stopped early (max_shards)
  }

  exp::ScenarioSpec spec;
  try {
    spec = exp::ScenarioSpec::from_json(spec_json);
  } catch (const std::exception& error) {
    throw std::invalid_argument(spec_path + ": " + error.what());
  }
  const telemetry::RunInfo run_identity = identity("campaign", spec.fingerprint());
  std::optional<telemetry::Heartbeat> heartbeat = telemetry_cli.start_heartbeat(run_identity);
  const auto statusd = telemetry_cli.start_statusd(run_identity);
  std::optional<exp::CampaignResult> run;
  {
    const Span span(run_timer, "run", "phase", {.announce = true});
    run.emplace(exp::run_campaign(spec, options));
  }
  const exp::CampaignResult& result = *run;
  if (heartbeat.has_value()) heartbeat->stop();
  report(result.jobs, result.jobs_run, result.resumed_shards, result.complete);
  emit(result.summary(spec));
  write_metrics(run_identity);
  return result.complete ? 0 : 4;  // 4 = stopped early (max_shards)
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "list") == 0) return cmd_list();
    if (std::strcmp(argv[1], "describe") == 0 && argc == 3) return cmd_describe(argv[2]);
    if (std::strcmp(argv[1], "run") == 0) return cmd_run(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "search") == 0) return cmd_search(argc - 2, argv + 2);
  } catch (const support::CheckpointError& error) {
    // One machine-parseable line: {"error":"checkpoint-resume","path":...,"reason":...}
    std::fprintf(stderr, "%s\n", error.structured().c_str());
    return 5;  // 5 = unresumable checkpoint
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 3;
  }
  return usage();
}
