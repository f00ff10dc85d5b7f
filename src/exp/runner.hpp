// CampaignRunner — executes a ScenarioSpec: a chunked work-queue of lazily
// generated jobs feeding streaming per-shard aggregators, merged
// deterministically in shard order.
//
// Design for "millions of runs in constant memory":
//
//   * jobs are never materialized: job j's instance is regenerated on
//     demand (sampler mode draws from agents::sample_stream(seed, j /
//     replications), an agents::SampleRng: the stream std::seed_seq{seed,
//     j / replications} seeds, so a job's stream is independent of execution
//     order and thread count; grid mode indexes the spec's instances);
//   * each shard (a contiguous chunk of job indices) accumulates its own
//     CampaignAggregate and, optionally, a JSONL buffer of per-run records;
//   * shards are merged/flushed strictly in shard order via
//     support::run_sharded's in-order completion hook — so the final
//     aggregate (including its floating-point sums), the JSONL file and
//     every checkpoint are bit-identical at any --threads value;
//   * a checkpoint (completed-shard prefix + serialized aggregate + JSONL
//     byte offset) is written every checkpoint_every shards; resuming
//     validates the spec fingerprint, truncates the JSONL file back to the
//     recorded offset and continues from the prefix — landing on the same
//     summary as an uninterrupted run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "exp/aggregate.hpp"
#include "exp/scenario.hpp"
#include "support/json.hpp"

namespace aurv::exp {

struct CampaignOptions {
  /// 0 picks std::thread::hardware_concurrency().
  std::size_t threads = 0;

  /// Jobs per shard: the unit of claiming, aggregation, flushing and
  /// checkpointing. Must be >= 1.
  std::size_t shard_size = 256;

  /// Per-run JSONL records (one object per line, in job order). Empty = off.
  std::string jsonl_path;

  /// Checkpoint file enabling resume. Empty = off.
  std::string checkpoint_path;
  /// Write the checkpoint every this many completed shards (>= 1).
  std::size_t checkpoint_every = 64;

  /// Continue from checkpoint_path if it exists (fresh start otherwise).
  bool resume = false;

  /// Stop after flushing this many shards in *this* invocation (0 = run to
  /// the end). With a checkpoint this yields incremental execution; it is
  /// also how the tests interrupt a campaign mid-run deterministically.
  std::size_t max_shards = 0;

  /// Progress hook, called serialized and in order with (jobs_done,
  /// jobs_total) after each shard flush.
  std::function<void(std::uint64_t, std::uint64_t)> progress;
};

struct CampaignResult {
  CampaignAggregate aggregate;
  std::uint64_t jobs = 0;            ///< total jobs in the campaign
  std::uint64_t jobs_run = 0;        ///< jobs executed by this invocation
  std::uint64_t resumed_shards = 0;  ///< completed-shard prefix taken from a checkpoint
  bool complete = true;              ///< false when max_shards stopped the run early

  /// The summary artifact. Depends only on (spec, aggregate, complete) —
  /// not on thread count, timing, or how the run was split across
  /// checkpoint/resume cycles.
  [[nodiscard]] support::Json summary(const ScenarioSpec& spec) const;
};

/// Runs (or resumes) the campaign described by `spec`. Throws
/// std::invalid_argument for spec/option/checkpoint mismatches and
/// support::JsonError for unreadable artifacts; exceptions from simulation
/// jobs propagate with deterministic first-in-job-order semantics.
[[nodiscard]] CampaignResult run_campaign(const ScenarioSpec& spec,
                                          const CampaignOptions& options = {});

/// The instance job `j` of the campaign runs on (exposed for tests and the
/// CLI's `describe`; the runner itself generates instances lazily with this
/// exact function, which is what makes replays and resumes line up).
[[nodiscard]] agents::Instance campaign_instance(const ScenarioSpec& spec, std::uint64_t job);

}  // namespace aurv::exp
