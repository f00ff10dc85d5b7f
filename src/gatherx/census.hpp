// CensusDriver — executes a GatherScenarioSpec: a chunked work-queue of
// lazily generated n-agent configurations feeding streaming per-policy
// aggregators, merged deterministically in shard order. The gathering
// counterpart of exp::run_campaign, with the same reproducibility contract:
//
//   * job j's configuration is regenerated on demand from
//     agents::sample_stream(seed, j / replications), an agents::SampleRng:
//     the stream std::seed_seq{seed, j / replications} seeds — independent
//     of execution order and thread count;
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

/// The campaign runner's result type, so one summary shape for both.
using CensusResult = exp::StreamRunResult<GatherAggregate>;

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
