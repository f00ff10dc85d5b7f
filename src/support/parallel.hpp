// Chunked, deterministic work-queue primitive shared by the batch runner,
// the campaign runners and the search's waves.
//
// Work is split into `shard_count` shards claimed in index order from an
// atomic counter (chunking amortizes the claim and gives downstream
// consumers a deterministic merge unit). Two guarantees make results
// independent of the number of workers:
//
//   * completion callback order: `complete(shard)` is invoked exactly once
//     per shard in strictly increasing shard order, serialized (never two
//     concurrently), from whichever worker closes the gap. Aggregation,
//     streaming output and checkpointing all hang off this hook. It is
//     serialized, not locked: it runs outside the primitive's mutex, so
//     while one worker drains, the others keep recording finished shards
//     and claiming new ones (with two or more workers and a later shard
//     inside the backpressure window, a `complete` may even wait for that
//     shard's body). Everything a body wrote is visible to its `complete`.
//   * error order: if shard bodies throw, the exception from the *lowest*
//     shard index is rethrown after all shards ran — not the first one a
//     thread happened to hit (the Bobpp-style "identical results at any
//     core count" discipline).
//
// Workers persist: the calling thread is one of the workers, and the
// others are process-wide helper threads parked between calls. A call
// borrows idle helpers and starts new ones only when none is idle, so
// concurrent calls, and calls nested inside a body or a `complete`, never
// wait for each other. Helpers are never joined; they keep their
// thread_local state from one call to the next.
#pragma once

#include <cstddef>
#include <functional>

namespace aurv::support {

struct ShardedRunOptions {
  /// 0 picks std::thread::hardware_concurrency().
  std::size_t threads = 0;

  /// Backpressure: cap on shards claimed but not yet drained by the
  /// in-order completion stream. Bounds the memory a consumer must stash
  /// when one slow shard stalls the drain while fast workers race ahead.
  /// 0 = unbounded; values below the worker count are raised to it (a
  /// smaller window would idle workers for no benefit).
  std::size_t max_in_flight = 0;
};

/// Runs `body(shard)` for every shard in [0, shard_count) across a worker
/// pool, then rethrows the recorded lowest-shard exception, if any. The
/// optional `complete(shard)` hook runs under the guarantees documented
/// above and is invoked for the longest *error-free prefix* of shards: the
/// first shard whose body (or whose own `complete`) throws ends the stream,
/// so a consumer never observes a prefix with a hole in it. After a
/// failure, in-flight bodies finish but no new shards are claimed — the
/// tail would be discarded anyway, and because shards are claimed in index
/// order the skipped tail can never hold the lowest-index error.
void run_sharded(std::size_t shard_count, const std::function<void(std::size_t)>& body,
                 const std::function<void(std::size_t)>& complete = {},
                 const ShardedRunOptions& options = {});

}  // namespace aurv::support
