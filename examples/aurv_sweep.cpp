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
//       --checkpoint-every K checkpoint every K shards (default 64, >= 1)
//       --resume             continue from the checkpoint; a missing,
//                            truncated or foreign checkpoint is refused
//                            with one structured stderr line (exit 5)
//       --shard-size K       jobs per shard (default 256, >= 1)
//       --max-shards K       stop after K shards (incremental execution)
//       --quiet              no progress on stderr
//       --progress [SECS]    heartbeat: one JSON line on stderr every SECS
//                            seconds, 0.001 to 1e6 (bare flag = 10; 0 =
//                            off); each line names the active phase/span
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
//                            every K waves (default 16, >= 1;
//                            --checkpoint-every is an alias)
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
//                            compacts them (default 8, >= 1)
//       --degraded-cap N     max open boxes held in memory after the spill
//                            directory goes unwritable/full and the
//                            frontier degrades to in-memory mode (0 =
//                            unbounded, default); past it the run fails
//                            with a structured error
//       --quiet              no progress on stderr
//       --progress [SECS]    heartbeat: one JSON line on stderr every SECS
//                            seconds, 0.001 to 1e6 (bare flag = 10; 0 =
//                            off); each line names the active phase/span
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
#include <cstdio>
#include <cstring>
#include <string>

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

namespace {

using namespace aurv;
using support::Json;

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
    const Json json = Json::load_file(path);
    if (json.string_or("kind", "") == exp::SearchSpec::kKind) {
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
    if (json.string_or("kind", "") == gatherx::GatherScenarioSpec::kKind) {
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

/// Runs `read` (a spec load or parse) so that its errors name the spec
/// file.
template <typename Read>
auto naming_spec(const std::string& path, Read&& read) {
  try {
    return read();
  } catch (const std::exception& error) {
    throw std::invalid_argument(path + ": " + error.what());
  }
}

/// A count flag's value, refused at parse time when it is 0.
std::size_t parse_count(const std::string& text, const std::string& flag) {
  const unsigned long long count = support::parse_uint(text, flag.c_str());
  if (count == 0) throw std::invalid_argument(flag + " must be at least 1");
  return count;
}

/// Parses a command's flags into `cli` (--out, --quiet and the telemetry
/// flags); `own(flag, value)` takes the command's own flags, where
/// `value()` consumes the next token. False after one stderr line on an
/// unknown flag.
template <typename Own>
bool parse_flags(int argc, char** argv, driver::Invocation& cli, Own&& own) {
  cli.spec_path = argv[0];
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    const auto value = [&]() -> std::string {
      if (k + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++k];
    };
    if (flag == "--out") cli.out_path = value();
    else if (flag == "--quiet") cli.quiet = true;
    else if (!own(flag, value) && !cli.telemetry.parse(flag, k, argc, argv)) {
      std::fprintf(stderr, "unknown option: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

int cmd_search(int argc, char** argv) {
  if (argc < 1) return usage();
  driver::Invocation cli;
  search::BnbOptions options;
  const bool parsed = parse_flags(argc, argv, cli, [&](const std::string& flag, auto&& value) {
    // --threads is accepted as an alias: both cap the workers per wave
    // (the campaign subcommand's spelling), and neither limits work —
    // that is --max-waves.
    if (flag == "--max-shards" || flag == "--threads")
      options.max_shards = support::parse_uint(value(), flag.c_str());
    else if (flag == "--incumbent-log") options.incumbent_log_path = value();
    else if (flag == "--provenance") options.provenance_path = value();
    else if (flag == "--checkpoint") options.checkpoint_path = value();
    // --checkpoint-every is the pre-delta-journal spelling, kept as an alias.
    else if (flag == "--compact-every" || flag == "--checkpoint-every")
      options.checkpoint_every = parse_count(value(), flag);
    else if (flag == "--resume") options.resume = true;
    else if (flag == "--max-waves")
      options.max_waves = support::parse_uint(value(), "--max-waves");
    else if (flag == "--spill-dir") options.spill_dir = value();
    else if (flag == "--frontier-mem")
      options.frontier_mem = support::parse_uint(value(), "--frontier-mem");
    else if (flag == "--spill-segments")
      options.spill_max_segments = parse_count(value(), flag);
    else if (flag == "--degraded-cap")
      options.frontier_degraded_capacity = support::parse_uint(value(), "--degraded-cap");
    else return false;
    return true;
  });
  if (!parsed) return usage();
  if (options.frontier_mem > 0 && options.spill_dir.empty())
    throw std::invalid_argument("--frontier-mem needs --spill-dir");
  if (!cli.quiet) {
    options.progress = [](std::uint64_t evaluated, std::uint64_t open) {
      std::fprintf(stderr, "\r%llu boxes evaluated, %llu open   ",
                   static_cast<unsigned long long>(evaluated),
                   static_cast<unsigned long long>(open));
    };
  }

  const driver::ObservedRun observed(cli);
  const exp::SearchSpec spec = observed.load([&] { return exp::SearchSpec::load(cli.spec_path); });
  Json config = Json::object();
  config.set("max_waves", Json(static_cast<std::uint64_t>(options.max_waves)));
  config.set("spill_dir", Json(options.spill_dir));
  config.set("frontier_mem", Json(static_cast<std::uint64_t>(options.frontier_mem)));
  config.set("resume", Json(options.resume));
  return observed.finish(
      spec, options.max_shards, std::move(config),
      [&](const exp::SearchSpec& loaded) { return exp::run_search(loaded, options); },
      [&](const exp::SearchRunResult& result) {
        if (!cli.quiet) {
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
        return result.bnb.complete();  // false = stopped early (max_waves)
      },
      "certificate",
      [](const exp::SearchSpec& loaded, const exp::SearchRunResult& result) {
        return result.certificate(loaded);
      });
}

int cmd_run(int argc, char** argv) {
  if (argc < 1) return usage();
  driver::Invocation cli;
  exp::CampaignOptions options;
  const bool parsed = parse_flags(argc, argv, cli, [&](const std::string& flag, auto&& value) {
    if (flag == "--threads") options.threads = support::parse_uint(value(), "--threads");
    else if (flag == "--jsonl") options.jsonl_path = value();
    else if (flag == "--checkpoint") options.checkpoint_path = value();
    else if (flag == "--checkpoint-every")
      options.checkpoint_every = parse_count(value(), flag);
    else if (flag == "--resume") options.resume = true;
    else if (flag == "--shard-size") options.shard_size = parse_count(value(), flag);
    else if (flag == "--max-shards")
      options.max_shards = support::parse_uint(value(), "--max-shards");
    else return false;
    return true;
  });
  if (!parsed) return usage();
  if (!cli.quiet) {
    options.progress = [](std::uint64_t done, std::uint64_t total) {
      // One status line, overwritten in place; ~64 updates over the run.
      const std::uint64_t step = std::max<std::uint64_t>(1, total / 64);
      if (done % step < 256 || done == total)
        std::fprintf(stderr, "\r%llu/%llu jobs", static_cast<unsigned long long>(done),
                     static_cast<unsigned long long>(total));
    };
  }

  const driver::ObservedRun observed(cli);
  const Json json = observed.load(
      [&] { return naming_spec(cli.spec_path, [&] { return Json::load_file(cli.spec_path); }); });
  Json config = Json::object();
  config.set("shard_size", Json(static_cast<std::uint64_t>(options.shard_size)));
  config.set("checkpoint_every", Json(static_cast<std::uint64_t>(options.checkpoint_every)));
  config.set("resume", Json(options.resume));
  // The two sweep kinds share the whole invocation surface; only the spec
  // type and runner differ.
  const auto sweep = [&](auto from_json, auto runner) {
    return observed.finish(
        naming_spec(cli.spec_path, [&] { return from_json(json); }), options.threads,
        std::move(config), [&](const auto& spec) { return runner(spec, options); },
        [&](const auto& result) {
          if (!cli.quiet) {
            std::fprintf(stderr, "\r%llu/%llu jobs done (%llu run now%s)\n",
                         static_cast<unsigned long long>(
                             result.complete ? result.jobs
                                             : result.resumed_shards * options.shard_size +
                                                   result.jobs_run),
                         static_cast<unsigned long long>(result.jobs),
                         static_cast<unsigned long long>(result.jobs_run),
                         result.resumed_shards > 0 ? ", resumed" : "");
          }
          return result.complete;  // false = stopped early (max_shards)
        },
        "summary", [](const auto& spec, const auto& result) { return result.summary(spec); });
  };
  if (json.string_or("kind", "") == gatherx::GatherScenarioSpec::kKind)
    return sweep(gatherx::GatherScenarioSpec::from_json, gatherx::run_census);
  return sweep(exp::ScenarioSpec::from_json, exp::run_campaign);
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
