// Tests for the sharded work-queue primitive: in-order completion stream,
// lowest-shard error determinism, error-free-prefix semantics, the
// in-flight backpressure window, helper-thread reuse, a completion hook
// that runs outside the lock, and concurrent and nested calls.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/parallel.hpp"

namespace aurv::support {
namespace {

TEST(RunSharded, CompletionIsInShardOrderAtAnyThreadCount) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::size_t> completed;
    std::mutex mutex;
    ShardedRunOptions options;
    options.threads = threads;
    run_sharded(
        40, [](std::size_t) {},
        [&](std::size_t shard) {
          const std::scoped_lock lock(mutex);
          completed.push_back(shard);
        },
        options);
    ASSERT_EQ(completed.size(), 40u);
    for (std::size_t k = 0; k < completed.size(); ++k) EXPECT_EQ(completed[k], k);
  }
}

TEST(RunSharded, LowestShardErrorWinsAndStopsTheStream) {
  // Shards 3 and 7 fail; 3 fails *slowly*, so a first-caught policy would
  // surface 7. The contract: error from shard 3, completes exactly 0..2.
  std::vector<std::size_t> completed;
  std::mutex mutex;
  ShardedRunOptions options;
  options.threads = 4;
  try {
    run_sharded(
        12,
        [](std::size_t shard) {
          if (shard == 3) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            throw std::runtime_error("slow-3");
          }
          if (shard == 7) throw std::runtime_error("fast-7");
        },
        [&](std::size_t shard) {
          const std::scoped_lock lock(mutex);
          completed.push_back(shard);
        },
        options);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "slow-3");
  }
  EXPECT_EQ(completed, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(RunSharded, FailureStopsClaimingTheDoomedTail) {
  // Serial execution makes the cut deterministic: shard 0 fails, so shards
  // 1..19 — whose results would be discarded with the rethrow — never run.
  std::atomic<int> bodies{0};
  ShardedRunOptions options;
  options.threads = 1;
  EXPECT_THROW(run_sharded(
                   20,
                   [&](std::size_t shard) {
                     bodies.fetch_add(1);
                     if (shard == 0) throw std::runtime_error("x");
                   },
                   {}, options),
               std::runtime_error);
  EXPECT_EQ(bodies.load(), 1);
}

TEST(RunSharded, BackpressureBoundsClaimedButUndrainedShards) {
  // Shard 0 is a straggler; without the window, the other workers would
  // race through all remaining shards while the drain sits at 0.
  constexpr std::size_t kWindow = 6;
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> drained{0};
  std::atomic<std::size_t> max_in_flight{0};
  ShardedRunOptions options;
  options.threads = 4;
  options.max_in_flight = kWindow;
  run_sharded(
      64,
      [&](std::size_t shard) {
        const std::size_t in_flight = started.fetch_add(1) + 1 - drained.load();
        std::size_t seen = max_in_flight.load();
        while (in_flight > seen && !max_in_flight.compare_exchange_weak(seen, in_flight)) {
        }
        if (shard == 0) std::this_thread::sleep_for(std::chrono::milliseconds(80));
      },
      [&](std::size_t) { drained.fetch_add(1); }, options);
  EXPECT_EQ(drained.load(), 64u);
  // The drain advances its cursor only after complete returns, so a
  // freshly unblocked body never observes `drained` lagging behind it.
  EXPECT_LE(max_in_flight.load(), kWindow);
}

TEST(RunSharded, RepeatedCallsReuseTheSameHelperThreads) {
  // Helpers park between calls; a call starts a thread only when none is
  // idle, so 50 calls at 4 workers see the caller plus at most 3 helpers.
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> helpers;
  std::mutex mutex;
  ShardedRunOptions options;
  options.threads = 4;
  for (int call = 0; call < 50; ++call) {
    run_sharded(
        16,
        [&](std::size_t) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          const std::scoped_lock lock(mutex);
          if (std::this_thread::get_id() != caller) helpers.insert(std::this_thread::get_id());
        },
        {}, options);
  }
  EXPECT_LE(helpers.size(), 3u);
}

TEST(RunSharded, CompleteRunsOutsideTheLockAndMayWaitForALaterBody) {
  // complete(0) blocks until shard 3's body has run. With two workers that
  // needs the other worker to keep claiming while complete(0) is running;
  // the timeout turns a regression into a failure instead of a hang.
  std::mutex mutex;
  std::condition_variable signal;
  bool shard3_ran = false;
  bool timed_out = false;
  std::vector<std::size_t> completed;
  ShardedRunOptions options;
  options.threads = 2;
  run_sharded(
      4,
      [&](std::size_t shard) {
        if (shard != 3) return;
        const std::scoped_lock lock(mutex);
        shard3_ran = true;
        signal.notify_all();
      },
      [&](std::size_t shard) {
        std::unique_lock lock(mutex);
        if (shard == 0)
          timed_out = !signal.wait_for(lock, std::chrono::seconds(10), [&] { return shard3_ran; });
        completed.push_back(shard);
      },
      options);
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(completed, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(RunSharded, ConcurrentAndNestedCallsCompleteInOrder) {
  // Three callers at once, each of whose bodies runs a nested call: none
  // waits for another's helpers, and every stream stays in order.
  constexpr std::size_t kOuter = 12;
  constexpr std::size_t kInner = 8;
  ShardedRunOptions options;
  options.threads = 3;
  const auto ordered = [](const std::vector<std::size_t>& order, std::size_t count) {
    if (order.size() != count) return false;
    for (std::size_t k = 0; k < count; ++k)
      if (order[k] != k) return false;
    return true;
  };
  std::atomic<int> bad_inner{0};
  std::vector<std::vector<std::size_t>> outer(3);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < outer.size(); ++c) {
    callers.emplace_back([&, c] {
      run_sharded(
          kOuter,
          [&](std::size_t) {
            std::vector<std::size_t> inner;
            run_sharded(
                kInner, [](std::size_t) { std::this_thread::yield(); },
                [&](std::size_t shard) { inner.push_back(shard); }, options);
            if (!ordered(inner, kInner)) bad_inner.fetch_add(1);
          },
          [&, c](std::size_t shard) { outer[c].push_back(shard); }, options);
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(bad_inner.load(), 0);
  for (const std::vector<std::size_t>& order : outer) EXPECT_TRUE(ordered(order, kOuter));
}

}  // namespace
}  // namespace aurv::support
