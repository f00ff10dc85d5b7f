// End-to-end I/O fault torture for the persistence layer.
//
// The stack's determinism guarantee (certificates and JSONL streams are
// byte-identical at any shard count and across resume) makes fault
// recovery *exactly* checkable: for a scripted fault at any mutating I/O
// operation of a run, the run must either
//
//   * complete in-process with byte-identical artifacts (the fault was
//     absorbed by bounded retry or by graceful spill degradation), or
//   * die (crash-stop / persistent error) and then a restarted invocation
//     — resuming iff the checkpoint survived — must land on byte-identical
//     artifacts.
//
// The harness runs a small checkpointed + spilled search and a small
// checkpointed + JSONL campaign once under the real vfs (ground truth),
// once under a counting FaultVfs to enumerate every mutating-operation
// site, then replays the run with one fault injected per (site x class)
// cell. Default: sites are sampled with a stride so the matrix stays
// PR-affordable; AURV_FAULT_EXHAUSTIVE=1 covers every site (nightly CI).
// On any mismatch the failing FaultSchedule is dumped as a JSON reproducer
// (AURV_FAULT_ARTIFACT_DIR, uploaded by CI).
//
// Also here: the resume diagnostics contract (missing / truncated /
// foreign checkpoints fail with a structured CheckpointError naming path
// and reason, and `aurv_sweep --resume` exits 5 with that one-liner on
// stderr) and the spill-degradation observability contract (a full disk
// mid-search degrades to in-memory with an identical certificate, visible
// only in BnbResult's non-certificate fields).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "test_paths.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/search_driver.hpp"
#include "search/bnb.hpp"
#include "search/box.hpp"
#include "support/jsonl.hpp"
#include "support/statusd.hpp"
#include "support/telemetry.hpp"
#include "support/vfs.hpp"

namespace aurv {
namespace {

namespace fs = std::filesystem;
using numeric::Rational;
using support::FaultClass;
using support::FaultSchedule;
using support::FaultSpec;
using support::FaultVfs;
using support::ScopedVfs;
using support::VfsCrashStop;
using support::VfsError;
using testpaths::fresh_dir;
using testpaths::scenario_path;
using testpaths::slurp;
using testpaths::temp_path;

// ------------------------------------------------------------- fixtures --

/// A compressed version of the spill-test tuple-space search: 24 boxes in
/// waves of 6 still produces several waves, incumbent improvements, heavy
/// spilling at frontier_mem=2 and segment merges at max_segments=2 — every
/// persistence code path — while keeping a single run cheap enough to
/// replay hundreds of times.
exp::SearchSpec fault_search_spec() {
  exp::SearchSpec spec;
  spec.name = "test_search_fault";
  spec.algorithm = "aurv";
  spec.objective = "max-meet-time";
  spec.space.family = search::SearchSpace::Family::Tuple;
  spec.space.chi = -1;
  spec.space.fixed = {{"r", Rational(1)},
                      {"y", Rational(numeric::BigInt(6), numeric::BigInt(5))},
                      {"phi", Rational(0)}};
  spec.space.dim_names = {"x", "t"};
  spec.box = {search::Interval{Rational(numeric::BigInt(3), numeric::BigInt(2)),
                               Rational(numeric::BigInt(7), numeric::BigInt(2))},
              search::Interval{Rational(0), Rational(3)}};
  spec.limits.max_boxes = 24;
  spec.limits.wave_size = 6;
  spec.limits.min_width = Rational(numeric::BigInt(1), numeric::BigInt(32));
  spec.engine.max_events = 2'000'000;
  spec.engine.horizon = Rational(256);
  return spec;
}

exp::ScenarioSpec fault_campaign_spec() {
  exp::ScenarioSpec spec;
  spec.name = "test_campaign_fault";
  spec.algorithm = "aurv";
  spec.seed = 7;
  spec.sampler = "type2";
  spec.count = 24;
  spec.engine.max_events = 2'000'000;
  return spec;
}

/// The byte-identity subjects of a run: the certificate/summary artifact
/// and the JSONL stream.
struct Artifacts {
  std::string certificate;
  std::string stream;

  bool operator==(const Artifacts&) const = default;
};

constexpr const char* kSearchCheckpoint = "search.ckpt.json";
constexpr const char* kCampaignCheckpoint = "campaign.ckpt.json";

/// Runs (or resumes) the torture search inside `dir`. Every persistence
/// feature is on: incumbent log, delta checkpoints compacted every 2
/// waves, spill-to-disk frontier with merges.
Artifacts run_search_in(const std::string& dir, bool resume,
                        search::BnbResult* bnb_out = nullptr) {
  const exp::SearchSpec spec = fault_search_spec();
  search::BnbOptions options;
  options.incumbent_log_path = dir + "/incumbents.jsonl";
  options.checkpoint_path = dir + "/" + kSearchCheckpoint;
  options.checkpoint_every = 2;
  options.spill_dir = dir + "/spill";
  options.frontier_mem = 2;
  options.spill_max_segments = 2;
  options.resume = resume;
  const exp::SearchRunResult result = exp::run_search(spec, options);
  if (bnb_out != nullptr) *bnb_out = result.bnb;
  return {result.certificate(spec).dump(2), slurp(options.incumbent_log_path)};
}

/// Runs (or resumes) the torture campaign inside `dir`: per-run JSONL plus
/// a checkpoint every 2 shards, two worker threads (flushes are serialized
/// in shard order, so the mutating-operation sequence stays deterministic).
Artifacts run_campaign_in(const std::string& dir, bool resume) {
  const exp::ScenarioSpec spec = fault_campaign_spec();
  exp::CampaignOptions options;
  options.threads = 2;
  options.shard_size = 4;
  options.jsonl_path = dir + "/runs.jsonl";
  options.checkpoint_path = dir + "/" + kCampaignCheckpoint;
  options.checkpoint_every = 2;
  options.resume = resume;
  const exp::CampaignResult result = exp::run_campaign(spec, options);
  return {result.summary(spec).dump(2), slurp(options.jsonl_path)};
}

// ------------------------------------------------------- torture harness --

struct FaultCase {
  FaultClass klass;
  bool sticky;
  const char* label;
};

/// One fault per cell: the four transient classes (absorbed in-process),
/// a sticky ENOSPC (dead disk: degrade or die-and-resume) and a scripted
/// crash-stop (always die-and-resume).
constexpr FaultCase kFaultCases[] = {
    {FaultClass::ShortWrite, false, "short-write"},
    {FaultClass::NoSpace, false, "enospc"},
    {FaultClass::FlushIo, false, "flush-eio"},
    {FaultClass::RenameFail, false, "rename-fail"},
    {FaultClass::NoSpace, true, "enospc-sticky"},
    {FaultClass::CrashStop, false, "crash-stop"},
};

/// Writes the failing schedule where CI can pick it up as the reproducer
/// artifact; returns the path for the failure message.
std::string dump_schedule_artifact(const FaultSchedule& schedule, const std::string& label) {
  const char* env = std::getenv("AURV_FAULT_ARTIFACT_DIR");
  const std::string dir =
      (env != nullptr && *env != '\0') ? std::string(env) : temp_path("fault_schedules");
  std::error_code ignored;
  fs::create_directories(dir, ignored);
  const std::string path = dir + "/" + label + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << schedule.to_json().dump(2) << "\n";
  return path;
}

void report_fault_failure(const FaultSchedule& schedule, const std::string& label,
                          const std::string& what) {
  const std::string artifact = dump_schedule_artifact(schedule, label);
  ADD_FAILURE() << label << ": " << what << "\n  reproducer schedule: " << artifact << "\n  "
                << schedule.to_json().dump();
}

/// Counts the mutating-operation sites of one clean run and sanity-checks
/// that the counting pass itself is byte-transparent.
template <typename RunFn>
std::uint64_t enumerate_sites(const Artifacts& expected, RunFn&& run_in_dir,
                              const std::string& dir) {
  FaultVfs counter{FaultSchedule{}};
  Artifacts counted;
  {
    ScopedVfs seam(counter);
    counted = run_in_dir(dir, false);
  }
  EXPECT_EQ(counted, expected) << "a pure counting FaultVfs must be a passthrough";
  EXPECT_FALSE(counter.op_log().empty());
  return counter.ops();
}

/// The matrix: for each sampled site x fault class, replay the run with
/// that one fault scripted. `tag` keys the artifact/trace labels;
/// `checkpoint_leaf` is how the restart decides fresh-vs-resume.
template <typename RunFn>
void torture_matrix(const char* tag, const Artifacts& expected, std::uint64_t total_ops,
                    const char* checkpoint_leaf, RunFn&& run_in_dir) {
  ASSERT_GT(total_ops, 20u) << "the torture run stopped exercising the persistence layer";
  const bool exhaustive = std::getenv("AURV_FAULT_EXHAUSTIVE") != nullptr;
  const std::uint64_t stride = exhaustive ? 1 : std::max<std::uint64_t>(1, total_ops / 12);

  for (std::uint64_t site = 0; site < total_ops; site += stride) {
    for (const FaultCase& fault_case : kFaultCases) {
      const std::string label = std::string(tag) + "_site" + std::to_string(site) + "_" +
                                fault_case.label;
      SCOPED_TRACE(label);
      const std::string dir = fresh_dir("fault_" + label);

      FaultSchedule schedule;
      schedule.faults.push_back(FaultSpec{site, "", fault_case.klass, fault_case.sticky});
      FaultVfs faulty(schedule);

      bool completed = false;
      std::string failure;
      Artifacts got;
      {
        ScopedVfs seam(faulty);
        try {
          got = run_in_dir(dir, false);
          completed = true;
        } catch (const VfsCrashStop& crash) {
          failure = "crash-stop after op " + std::to_string(crash.op_index) + " (" + crash.op +
                    " " + crash.path + ")";
        } catch (const VfsError& error) {
          failure = error.what();
        }
      }

      const bool transient = !fault_case.sticky && fault_case.klass != FaultClass::CrashStop;
      if (transient && !completed) {
        report_fault_failure(schedule, label, "transient fault was not absorbed: " + failure);
        continue;
      }
      if (fault_case.klass == FaultClass::CrashStop && completed) {
        report_fault_failure(schedule, label, "scripted crash-stop never fired");
        continue;
      }

      if (!completed) {
        // Crash-equivalent outcome: restart the invocation in the same
        // directory under the real vfs, resuming iff the checkpoint made
        // it to disk before the "process" died.
        const bool resume = fs::exists(dir + "/" + checkpoint_leaf);
        try {
          got = run_in_dir(dir, resume);
        } catch (const std::exception& error) {
          report_fault_failure(schedule, label,
                               std::string("restart (resume=") + (resume ? "true" : "false") +
                                   ") after [" + failure + "] failed: " + error.what());
          continue;
        }
      }

      if (got.certificate != expected.certificate) {
        report_fault_failure(schedule, label,
                             completed ? "completed run diverged from ground truth (certificate)"
                                       : "resumed run diverged from ground truth (certificate)");
      } else if (got.stream != expected.stream) {
        report_fault_failure(schedule, label,
                             completed ? "completed run diverged from ground truth (JSONL)"
                                       : "resumed run diverged from ground truth (JSONL)");
      }
    }
  }
}

// ------------------------------------------------------------- the tests --

TEST(FaultTorture, SearchSurvivesEveryFaultClassAtEveryIoSite) {
  const auto run = [](const std::string& dir, bool resume) { return run_search_in(dir, resume); };
  const Artifacts expected = run(fresh_dir("fault_search_truth"), false);
  const std::uint64_t total_ops = enumerate_sites(expected, run, fresh_dir("fault_search_count"));
  torture_matrix("search", expected, total_ops, kSearchCheckpoint, run);
}

TEST(FaultTorture, CampaignStreamSurvivesEveryFaultClassAtEveryIoSite) {
  const auto run = [](const std::string& dir, bool resume) {
    return run_campaign_in(dir, resume);
  };
  const Artifacts expected = run(fresh_dir("fault_campaign_truth"), false);
  const std::uint64_t total_ops =
      enumerate_sites(expected, run, fresh_dir("fault_campaign_count"));
  torture_matrix("campaign", expected, total_ops, kCampaignCheckpoint, run);
}

// ------------------------------------------- degradation observability --

TEST(FaultTorture, FullSpillDiskMidSearchDegradesWithIdenticalCertificate) {
  // Ground truth: the same spilled search on a healthy disk.
  search::BnbResult healthy_bnb;
  const std::string healthy_dir = fresh_dir("fault_degrade_truth");
  const Artifacts expected = run_search_in(healthy_dir, false, &healthy_bnb);
  EXPECT_GT(healthy_bnb.frontier_spilled, 0u) << "the spec must actually spill";
  EXPECT_FALSE(healthy_bnb.frontier_degraded);

  // The spill dir fills up mid-run: every segment write after the first
  // few fails with a persistent ENOSPC. "seg-" touches only segment
  // files, so checkpoints and the incumbent log stay healthy.
  FaultSchedule schedule;
  schedule.faults.push_back(FaultSpec{4, "seg-", FaultClass::NoSpace, true});
  FaultVfs faulty(schedule);

  search::BnbResult degraded_bnb;
  Artifacts degraded;
  {
    ScopedVfs seam(faulty);
    degraded = run_search_in(fresh_dir("fault_degrade_run"), false, &degraded_bnb);
  }

  // Byte-identical artifacts; the degradation is visible only in the
  // invocation-side observability fields, never in the certificate.
  EXPECT_EQ(degraded.certificate, expected.certificate);
  EXPECT_EQ(degraded.stream, expected.stream);
  EXPECT_TRUE(degraded_bnb.frontier_degraded);
  EXPECT_NE(degraded_bnb.frontier_degradation.find("injected"), std::string::npos)
      << degraded_bnb.frontier_degradation;
  EXPECT_EQ(degraded.certificate.find("degrad"), std::string::npos);
}

TEST(FaultTorture, FullSpillDiskMidSearchTurnsHealthzUnhealthy) {
  // The same dead spill disk: the degraded frontier must reach /healthz
  // through its `search.frontier.degraded` gauge.
  support::telemetry::registry().reset();
  FaultSchedule schedule;
  schedule.faults.push_back(FaultSpec{4, "seg-", FaultClass::NoSpace, true});
  FaultVfs faulty(schedule);
  search::BnbResult degraded_bnb;
  {
    ScopedVfs seam(faulty);
    (void)run_search_in(fresh_dir("fault_degrade_healthz"), false, &degraded_bnb);
  }
  ASSERT_TRUE(degraded_bnb.frontier_degraded);

  const support::statusd::Response health =
      support::statusd::handle_request("GET", "/healthz", {}, 0.0);
  EXPECT_EQ(health.status, 503) << health.body;
  EXPECT_NE(health.body.find("\"search.frontier.degraded\""), std::string::npos) << health.body;
}

TEST(FaultTorture, DegradedCapacityBoundFailsWithAStructuredError) {
  // Same dead disk, but the operator capped the in-memory fallback far
  // below what this search needs: the run must fail with a structured
  // VfsError naming the bound instead of silently ballooning.
  FaultSchedule schedule;
  schedule.faults.push_back(FaultSpec{0, "seg-", FaultClass::NoSpace, true});
  FaultVfs faulty(schedule);

  const std::string dir = fresh_dir("fault_degrade_cap");
  const exp::SearchSpec spec = fault_search_spec();
  search::BnbOptions options;
  options.incumbent_log_path = dir + "/incumbents.jsonl";
  options.spill_dir = dir + "/spill";
  options.frontier_mem = 2;
  options.frontier_degraded_capacity = 2;

  ScopedVfs seam(faulty);
  try {
    (void)exp::run_search(spec, options);
    FAIL() << "a degraded frontier over its capacity bound must not complete";
  } catch (const VfsError& error) {
    EXPECT_EQ(error.op(), "spill");
    EXPECT_NE(error.reason().find("degraded_capacity=2"), std::string::npos) << error.reason();
    EXPECT_FALSE(error.transient());
  }
}

// ------------------------------------------------- resume diagnostics --

void expect_checkpoint_error(const std::function<void()>& run, const std::string& path,
                             const std::string& reason_fragment) {
  try {
    run();
    FAIL() << "expected CheckpointError (" << reason_fragment << ") for " << path;
  } catch (const support::CheckpointError& error) {
    EXPECT_EQ(error.path(), path);
    EXPECT_NE(error.reason().find(reason_fragment), std::string::npos)
        << "reason: " << error.reason();
    const std::string line = error.structured();
    EXPECT_NE(line.find("checkpoint-resume"), std::string::npos) << line;
    EXPECT_NE(line.find(path), std::string::npos) << line;
    EXPECT_EQ(line.find('\n'), std::string::npos) << "structured() must be one line: " << line;
  }
}

TEST(ResumeDiagnostics, SearchResumeRefusesMissingTruncatedAndForeignCheckpoints) {
  const std::string dir = fresh_dir("resume_diag_search");
  const std::string checkpoint = dir + "/" + kSearchCheckpoint;
  const auto attempt = [&] { (void)run_search_in(dir, true); };

  expect_checkpoint_error(attempt, checkpoint, "missing");

  std::ofstream(checkpoint, std::ios::binary) << "{\"kind\": \"search-checkpo";  // torn write
  expect_checkpoint_error(attempt, checkpoint, "unreadable or truncated");

  std::ofstream(checkpoint, std::ios::binary | std::ios::trunc)
      << "{\"kind\": \"campaign-checkpoint\", \"schema\": 1}";
  expect_checkpoint_error(attempt, checkpoint, "foreign");
}

TEST(ResumeDiagnostics, CampaignResumeRefusesMissingTruncatedAndForeignCheckpoints) {
  const std::string dir = fresh_dir("resume_diag_campaign");
  const std::string checkpoint = dir + "/" + kCampaignCheckpoint;
  const auto attempt = [&] { (void)run_campaign_in(dir, true); };

  expect_checkpoint_error(attempt, checkpoint, "missing");

  std::ofstream(checkpoint, std::ios::binary) << "not json at all";
  expect_checkpoint_error(attempt, checkpoint, "unreadable or truncated");

  std::ofstream(checkpoint, std::ios::binary | std::ios::trunc)
      << "{\"kind\": \"search-checkpoint\", \"schema\": 1}";
  expect_checkpoint_error(attempt, checkpoint, "foreign");

  // A real checkpoint of this campaign, but of another schema.
  (void)run_campaign_in(dir, false);
  std::string text = slurp(checkpoint);
  const std::size_t schema = text.find("\"schema\": 1,");
  ASSERT_NE(schema, std::string::npos) << text;
  text.replace(schema, 11, "\"schema\": 99");
  std::ofstream(checkpoint, std::ios::binary | std::ios::trunc) << text;
  expect_checkpoint_error(attempt, checkpoint, "schema 99");
}

// The CLI contract on top of the same errors: exit code 5 and the
// structured one-liner on stderr, for both sweep kinds.

int run_cli(const std::string& command) {
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ResumeDiagnostics, CliResumeFailuresExitFiveWithAStructuredStderrLine) {
  const std::string sweep = testpaths::sweep_binary();
  if (!fs::exists(sweep)) GTEST_SKIP() << "aurv_sweep not built: " << sweep;
  const std::string dir = fresh_dir("resume_diag_cli");
  const std::string checkpoint = dir + "/cli.ckpt.json";
  const std::string stderr_path = dir + "/stderr.txt";

  const auto search_cmd = sweep + " search " + scenario_path("search_smoke.json") +
                          " --checkpoint " + checkpoint + " --resume --quiet --out " + dir +
                          "/out.json 2> " + stderr_path;

  // Missing checkpoint.
  EXPECT_EQ(run_cli(search_cmd), 5);
  std::string line = slurp(stderr_path);
  EXPECT_NE(line.find("checkpoint-resume"), std::string::npos) << line;
  EXPECT_NE(line.find(checkpoint), std::string::npos) << line;
  EXPECT_NE(line.find("missing"), std::string::npos) << line;

  // Truncated checkpoint.
  std::ofstream(checkpoint, std::ios::binary) << "{\"kind\": \"search-checkpo";
  EXPECT_EQ(run_cli(search_cmd), 5);
  EXPECT_NE(slurp(stderr_path).find("unreadable or truncated"), std::string::npos);

  // Foreign checkpoint.
  std::ofstream(checkpoint, std::ios::binary | std::ios::trunc)
      << "{\"kind\": \"campaign-checkpoint\", \"schema\": 1}";
  EXPECT_EQ(run_cli(search_cmd), 5);
  EXPECT_NE(slurp(stderr_path).find("foreign"), std::string::npos);

  // The campaign runner path through `aurv_sweep run`.
  const auto run_cmd = sweep + " run " + scenario_path("smoke_type2.json") +
                       " --checkpoint " + checkpoint + " --resume --quiet --out " + dir +
                       "/out.json 2> " + stderr_path;
  std::ofstream(checkpoint, std::ios::binary | std::ios::trunc)
      << "{\"kind\": \"search-checkpoint\", \"schema\": 1}";
  EXPECT_EQ(run_cli(run_cmd), 5);
  line = slurp(stderr_path);
  EXPECT_NE(line.find("checkpoint-resume"), std::string::npos) << line;
  EXPECT_NE(line.find("foreign"), std::string::npos) << line;
}

}  // namespace
}  // namespace aurv
