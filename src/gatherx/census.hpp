// CensusDriver — executes a GatherScenarioSpec: a chunked work-queue of
// lazily generated n-agent configurations feeding streaming per-policy
// aggregators, merged deterministically in shard order. The gathering
// counterpart of exp::run_campaign, with the same reproducibility contract:
//
//   * job j's configuration is regenerated on demand from
//     agents::sample_stream(seed, j / replications), the stream
//     std::seed_seq{seed, j / replications} seeds — independent of execution
//     order and thread count;
//   * each job runs once per configured stop policy (FirstSight and
//     AllVisible are different experiments on one population);
//   * shards are merged/flushed strictly in shard order via
//     support::run_sharded, so the summary (including its floating-point
//     sums), the JSONL stream and every checkpoint are bit-identical at
//     any --threads / --max-shards value;
//   * checkpoints pin the spec fingerprint and the JSONL byte offset;
//     resuming lands on the same summary as an uninterrupted run.
#pragma once

#include <cstdint>

#include "agents/gather_sampler.hpp"
#include "exp/runner.hpp"
#include "gatherx/aggregate.hpp"
#include "gatherx/scenario.hpp"
#include "support/json.hpp"

namespace aurv::gatherx {

/// Invocation knobs are identical to the campaign runner's (threads,
/// shard_size, jsonl/checkpoint paths, resume, max_shards, progress) — one
/// vocabulary for both sweep kinds, and aurv_sweep parses one flag set.
using CensusOptions = exp::CampaignOptions;

struct CensusResult {
  GatherAggregate aggregate;
  std::uint64_t jobs = 0;            ///< total jobs in the census
  std::uint64_t jobs_run = 0;        ///< jobs executed by this invocation
  std::uint64_t resumed_shards = 0;  ///< completed-shard prefix from a checkpoint
  bool complete = true;              ///< false when max_shards stopped the run early

  /// The summary artifact. Depends only on (spec, aggregate, complete) —
  /// not on thread count, timing, or checkpoint/resume splits.
  [[nodiscard]] support::Json summary(const GatherScenarioSpec& spec) const;
};

/// The configuration job `j` runs on (exposed for tests and the CLI's
/// `describe`; the runner generates configurations lazily with this exact
/// function, which is what makes replays and resumes line up).
[[nodiscard]] agents::GatherInstance census_instance(const GatherScenarioSpec& spec,
                                                     std::uint64_t job);

/// Runs (or resumes) the census described by `spec`. Throws
/// std::invalid_argument for spec/option/checkpoint mismatches and
/// support::JsonError for unreadable artifacts; exceptions from simulation
/// jobs propagate with deterministic first-in-job-order semantics.
[[nodiscard]] CensusResult run_census(const GatherScenarioSpec& spec,
                                      const CensusOptions& options = {});

}  // namespace aurv::gatherx
