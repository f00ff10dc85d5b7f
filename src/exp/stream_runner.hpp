// The checkpointed sharded-stream harness shared by the campaign runner
// (exp/runner.cpp) and the gathering census driver (gatherx/census.cpp):
// a chunked work-queue of jobs feeding a streaming aggregate and an
// optional JSONL sink, merged strictly in shard order via
// support::run_sharded, with fingerprint-pinned checkpoints and resume.
//
// Everything that makes the two runners deterministic lives here exactly
// once: the in-order merge (bit-identical double sums at any thread
// count), the bounded stash (constant memory however large the stream),
// the checkpoint schema and its resume validation (kind, fingerprint,
// shard_size, jsonl path), the JSONL truncate-on-resume contract, and the
// jobs_run accounting. Callers provide only their vocabulary: the
// checkpoint `kind` string, the spec fingerprint, and a per-job body.
//
// `Aggregate` must provide merge(const Aggregate&), to_json() and a
// static from_json(const Json&) (lossless round-trip: it is the
// checkpoint payload).
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/runner.hpp"
#include "support/check.hpp"
#include "support/jsonl.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace aurv::exp {

template <typename Aggregate>
struct StreamRunResult {
  Aggregate aggregate;
  std::uint64_t jobs = 0;            ///< total jobs in the stream
  std::uint64_t jobs_run = 0;        ///< jobs executed by this invocation
  std::uint64_t resumed_shards = 0;  ///< completed-shard prefix from a checkpoint
  bool complete = true;              ///< false when max_shards stopped the run early
};

/// Runs (or resumes) the stream. `run_job(job, aggregate, jsonl)` executes
/// one job into the shard-local aggregate; `jsonl` is nullptr when the sink
/// is off, otherwise the job's record line(s) are appended to it. Throws
/// std::invalid_argument for option/checkpoint mismatches; job exceptions
/// propagate with deterministic first-in-job-order semantics.
template <typename Aggregate, typename RunJob>
[[nodiscard]] StreamRunResult<Aggregate> run_checkpointed_stream(
    const char* checkpoint_kind, std::uint64_t fingerprint, std::uint64_t total_jobs,
    const CampaignOptions& options, RunJob&& run_job) {
  using support::Json;

  AURV_CHECK_MSG(options.shard_size >= 1, "shard_size must be >= 1");
  AURV_CHECK_MSG(options.checkpoint_every >= 1, "checkpoint_every must be >= 1");
  AURV_CHECK_MSG(total_jobs >= 1, "stream has no jobs");
  const std::uint64_t total_shards = (total_jobs + options.shard_size - 1) / options.shard_size;

  struct CheckpointState {
    std::uint64_t completed_shards = 0;
    std::uint64_t jsonl_bytes = 0;
    Aggregate aggregate;
  };
  const std::string fingerprint_hex = support::fingerprint_hex(fingerprint);

  const auto checkpoint_to_json = [&](const CheckpointState& state) {
    Json json = Json::object();
    json.set("schema", Json(std::uint64_t{1}));
    json.set("kind", Json(checkpoint_kind));
    json.set("fingerprint", Json(fingerprint_hex));
    json.set("shard_size", Json(static_cast<std::uint64_t>(options.shard_size)));
    json.set("jsonl_path", Json(options.jsonl_path));
    json.set("completed_shards", Json(state.completed_shards));
    json.set("jsonl_bytes", Json(state.jsonl_bytes));
    json.set("aggregate", state.aggregate.to_json());
    return json;
  };
  const auto checkpoint_from_json = [&](const Json& json) {
    // Foreign checkpoints carry the path so drivers can emit one
    // structured diagnostic line (CheckpointError is still an
    // invalid_argument — the contract below is unchanged).
    if (json.string_or("kind", "") != checkpoint_kind)
      throw support::CheckpointError(
          options.checkpoint_path,
          std::string("not a ") + checkpoint_kind + " file (foreign checkpoint)");
    if (json.at("fingerprint").as_string() != fingerprint_hex)
      throw support::CheckpointError(
          options.checkpoint_path,
          "spec fingerprint mismatch (spec edited since the checkpoint was "
          "written; delete the checkpoint to start over)");
    if (json.at("shard_size").as_uint() != options.shard_size)
      throw std::invalid_argument("checkpoint: shard_size mismatch (resume with --shard-size " +
                                  std::to_string(json.at("shard_size").as_uint()) + ")");
    if (json.at("jsonl_path").as_string() != options.jsonl_path)
      throw std::invalid_argument(
          "checkpoint: --jsonl path differs from the original run's (\"" +
          json.at("jsonl_path").as_string() + "\"); resuming would truncate the wrong file");
    CheckpointState state;
    state.completed_shards = json.at("completed_shards").as_uint();
    state.jsonl_bytes = json.at("jsonl_bytes").as_uint();
    state.aggregate = Aggregate::from_json(json.at("aggregate"));
    return state;
  };

  CheckpointState state;  // completed prefix (empty unless resuming)
  if (options.resume && !options.checkpoint_path.empty()) {
    // An explicit --resume with nothing (usable) to resume is refused
    // with a structured error instead of silently starting over:
    // restarting would truncate the very stream the caller asked to
    // extend.
    if (!support::vfs().exists(options.checkpoint_path))
      throw support::CheckpointError(
          options.checkpoint_path,
          "missing (no checkpoint at this path; run without --resume to start fresh)");
    Json checkpoint;
    try {
      checkpoint = Json::load_file(options.checkpoint_path);
    } catch (const support::JsonError& error) {
      throw support::CheckpointError(
          options.checkpoint_path,
          std::string("unreadable or truncated (") + error.what() + ")");
    }
    state = checkpoint_from_json(checkpoint);
    if (state.completed_shards > total_shards)
      throw std::invalid_argument("checkpoint: more shards than the stream has");
  }

  StreamRunResult<Aggregate> result;
  result.jobs = total_jobs;
  result.resumed_shards = state.completed_shards;

  // Telemetry: jobs are tallied into a shard-local accumulator in `body`
  // and folded into the registry by `complete`, which run_sharded calls
  // strictly in shard order — so even the intermediate counter sequence
  // is thread-count-invariant. The jobs gauges are the run's live
  // progress (heartbeat and /status).
  namespace telemetry = support::telemetry;
  using support::trace::Span;
  telemetry::Counter& shards_counter = telemetry::registry().counter("runner.shards");
  telemetry::Counter& checkpoints_counter = telemetry::registry().counter("runner.checkpoints");
  telemetry::Gauge& jobs_done_gauge = telemetry::registry().gauge("runner.jobs_done");
  telemetry::Gauge& jobs_total_gauge = telemetry::registry().gauge("runner.jobs_total");
  telemetry::Timer& checkpoint_timer = telemetry::registry().timer("runner.checkpoint_write");
  telemetry::Timer& shard_timer = telemetry::registry().timer("runner.shard");
  jobs_total_gauge.set(static_cast<std::int64_t>(total_jobs));
  jobs_done_gauge.set(
      static_cast<std::int64_t>(std::min(total_jobs, state.completed_shards * options.shard_size)));

  const std::uint64_t start_shard = state.completed_shards;
  std::uint64_t end_shard = total_shards;
  if (options.max_shards > 0)
    end_shard = std::min(end_shard, start_shard + options.max_shards);

  support::JsonlSink jsonl(options.jsonl_path, start_shard > 0 ? state.jsonl_bytes : 0);

  struct ShardOutput {
    Aggregate aggregate;
    std::string jsonl;
    telemetry::ShardAccumulator metrics;
    support::trace::TraceBuffer trace;  ///< shard-local spans, merged in order
  };
  std::mutex stash_mutex;
  // Size bounded by the runner's max_in_flight window (set below), even
  // when one slow shard stalls the in-order drain while fast workers race
  // ahead — that bound is what keeps huge streams constant-memory.
  std::map<std::uint64_t, ShardOutput> stash;

  const bool want_jsonl = !options.jsonl_path.empty();
  const auto job_range = [&](std::uint64_t shard) {
    const std::uint64_t lo = shard * options.shard_size;
    const std::uint64_t hi = std::min<std::uint64_t>(total_jobs, lo + options.shard_size);
    return std::pair{lo, hi};
  };

  const auto body = [&](std::size_t local_shard) {
    const std::uint64_t shard = start_shard + local_shard;
    const auto [lo, hi] = job_range(shard);
    ShardOutput output;
    output.trace = support::trace::TraceBuffer(static_cast<std::uint32_t>(shard + 1));
    {
      // Scoped so the span lands in the buffer before the output moves.
      Span span(shard_timer, "shard", "runner", {.buffer = &output.trace});
      if (span.armed()) {
        Json args = Json::object();
        args.set("shard", Json(shard));
        args.set("jobs", Json(hi - lo));
        span.set_args(std::move(args));
      }
      for (std::uint64_t job = lo; job < hi; ++job) {
        run_job(job, output.aggregate, want_jsonl ? &output.jsonl : nullptr);
      }
    }
    output.metrics.add("runner.jobs", hi - lo);
    const std::scoped_lock lock(stash_mutex);
    stash.emplace(shard, std::move(output));
  };

  const auto complete = [&](std::size_t local_shard) {
    const std::uint64_t shard = start_shard + local_shard;
    ShardOutput output;
    {
      const std::scoped_lock lock(stash_mutex);
      const auto found = stash.find(shard);
      AURV_CHECK_MSG(found != stash.end(), "shard output missing at completion");
      output = std::move(found->second);
      stash.erase(found);
    }
    state.aggregate.merge(output.aggregate);
    telemetry::registry().merge(output.metrics);
    support::trace::sink().merge(output.trace);
    shards_counter.add();
    jsonl.append(output.jsonl);
    state.completed_shards = shard + 1;
    state.jsonl_bytes = jsonl.bytes();
    {
      const auto [lo, hi] = job_range(shard);
      (void)lo;
      jobs_done_gauge.set(static_cast<std::int64_t>(hi));
    }
    if (!options.checkpoint_path.empty() &&
        ((shard + 1) % options.checkpoint_every == 0 || shard + 1 == total_shards)) {
      jsonl.flush();
      const Span span(checkpoint_timer, "checkpoint", "runner", {.announce = true});
      support::save_json_atomically(options.checkpoint_path, checkpoint_to_json(state));
      checkpoints_counter.add();
    }
    if (options.progress) {
      const auto [lo, hi] = job_range(shard);
      (void)lo;
      options.progress(hi, total_jobs);
    }
  };

  if (end_shard > start_shard) {
    support::ShardedRunOptions sharded;
    sharded.threads = options.threads;
    sharded.max_in_flight = 16;  // stash stays O(window), not O(total shards)
    support::run_sharded(static_cast<std::size_t>(end_shard - start_shard), body, complete,
                         sharded);
  }

  // If the run was cut short (max_shards) with checkpointing on, persist the
  // frontier even when it does not land on a checkpoint_every boundary, so
  // the next invocation resumes from exactly where this one stopped.
  result.complete = state.completed_shards == total_shards;
  if (!result.complete && !options.checkpoint_path.empty()) {
    jsonl.flush();
    const Span span(checkpoint_timer, "checkpoint", "runner", {.announce = true});
    support::save_json_atomically(options.checkpoint_path, checkpoint_to_json(state));
    checkpoints_counter.add();
  }

  result.aggregate = std::move(state.aggregate);
  const std::uint64_t start_jobs = std::min(total_jobs, start_shard * options.shard_size);
  const std::uint64_t done_jobs = state.completed_shards == total_shards
                                      ? total_jobs
                                      : state.completed_shards * options.shard_size;
  result.jobs_run = done_jobs - start_jobs;
  return result;
}

}  // namespace aurv::exp
