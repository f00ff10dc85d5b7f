#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace aurv::support {

namespace {

// ------------------------------------------------------------------------
// Helper threads. A call borrows idle helpers for its worker loop and
// returns them when the loop ends; a helper is started only when none is
// idle, so concurrent and nested calls never wait for each other. Helpers
// park on their own condition variable between calls and are never
// joined: the pool and its helpers live until the process exits.
// ------------------------------------------------------------------------

/// One borrowed worker loop; lives on the calling thread's stack.
struct Loan {
  const std::function<void()>* work;
  std::size_t running = 0;  ///< helpers still inside `work`; guarded by the pool mutex
};

struct Helper {
  std::condition_variable wake;
  Loan* loan = nullptr;  ///< guarded by the pool mutex
};

class HelperPool {
 public:
  /// Hands the loan's work to `count` helpers (fewer only if no thread
  /// can be started; the caller's own loop then covers the rest).
  void lend(Loan& loan, std::size_t count) {
    const std::scoped_lock lock(mutex_);
    for (std::size_t k = 0; k < count; ++k) {
      Helper* helper = nullptr;
      if (!idle_.empty()) {
        // LIFO: the most recently parked helpers are reused first, so a
        // run of equal-sized calls keeps landing on the same threads.
        helper = idle_.back();
        idle_.pop_back();
      } else {
        helper = new Helper();  // never freed, like the thread that owns it
        try {
          std::thread(&HelperPool::park, this, helper).detach();
        } catch (const std::system_error&) {
          delete helper;
          return;
        }
      }
      helper->loan = &loan;
      ++loan.running;
      helper->wake.notify_one();
    }
  }

  /// Blocks until every helper lent to `loan` has left its loop.
  void wait(Loan& loan) {
    std::unique_lock lock(mutex_);
    returned_.wait(lock, [&] { return loan.running == 0; });
  }

 private:
  void park(Helper* self) {
    std::unique_lock lock(mutex_);
    while (true) {
      self->wake.wait(lock, [&] { return self->loan != nullptr; });
      Loan* loan = self->loan;
      lock.unlock();
      (*loan->work)();
      lock.lock();
      self->loan = nullptr;
      idle_.push_back(self);
      // After this decrement the loan's owner may return and free it; every
      // object touched from here on belongs to the immortal pool.
      --loan->running;
      returned_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable returned_;
  std::vector<Helper*> idle_;
};

HelperPool& helper_pool() {
  static HelperPool* pool = new HelperPool();  // never destroyed: helpers outlive main
  return *pool;
}

}  // namespace

void run_sharded(std::size_t shard_count, const std::function<void(std::size_t)>& body,
                 const std::function<void(std::size_t)>& complete,
                 const ShardedRunOptions& options) {
  if (shard_count == 0) return;
  std::size_t threads = options.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  threads = std::min(threads, shard_count);
  std::size_t window = options.max_in_flight;
  if (window != 0) window = std::max(window, threads);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> aborted{false};
  // The mutex guards everything below. `complete` runs outside it: one
  // worker at a time holds `draining` and drains the in-order stream while
  // the others record their shards and claim new ones instead of queueing
  // behind a slow hook. Workers touch the lock once per shard, plus once
  // per completed shard for the drainer.
  std::mutex mutex;
  std::condition_variable drained;
  enum : char { kPending = 0, kDone = 1, kFailed = 2 };
  std::vector<char> status(shard_count, kPending);
  std::size_t next_complete = 0;
  bool draining = false;
  std::size_t error_shard = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  const auto record_error = [&](std::size_t shard, std::exception_ptr e) {
    // Lowest shard wins; caller holds the mutex.
    if (shard < error_shard) {
      error_shard = shard;
      error = std::move(e);
    }
    aborted.store(true, std::memory_order_relaxed);
  };

  const std::function<void()> worker = [&] {
    while (true) {
      // After a failure, stop claiming: everything past the break point
      // would be computed, stashed by the consumer, and then thrown away.
      // In-flight shards still finish, and because shards are claimed in
      // index order every shard below a failed one is already claimed — so
      // skipping the tail cannot change which error is the lowest-index
      // one, at any thread count.
      if (aborted.load(std::memory_order_relaxed)) return;
      const std::size_t shard = next.fetch_add(1, std::memory_order_relaxed);
      if (shard >= shard_count) return;
      if (window != 0) {
        // Backpressure: don't run ahead of the drain by more than the
        // window. Deadlock-free because shards are claimed in order, so the
        // drain's head shard is always already claimed and executing (never
        // waiting here — its index is below next_complete + window), and
        // the drainer never waits here while it holds `draining`.
        std::unique_lock<std::mutex> lock(mutex);
        drained.wait(lock, [&] {
          return shard < next_complete + window || next_complete >= shard_count;
        });
      }
      std::exception_ptr body_error;
      try {
        body(shard);
      } catch (...) {
        body_error = std::current_exception();
      }
      std::unique_lock<std::mutex> lock(mutex);
      status[shard] = body_error ? kFailed : kDone;  // before the move below
      if (body_error) record_error(shard, std::move(body_error));
      // Another worker is draining: it re-reads `status` under the mutex
      // before it lets go of `draining`, so it will reach this shard.
      if (draining) continue;
      draining = true;
      while (next_complete < shard_count && status[next_complete] != kPending) {
        if (status[next_complete] == kFailed) {
          // The in-order stream is broken: consumers must never observe a
          // prefix with a hole in it, so no further shard completes (the
          // remaining bodies still run; the error is rethrown after join).
          next_complete = shard_count;
          break;
        }
        const std::size_t ready = next_complete;
        if (complete) {
          lock.unlock();
          std::exception_ptr complete_error;
          try {
            complete(ready);
          } catch (...) {
            complete_error = std::current_exception();
          }
          lock.lock();
          if (complete_error) {
            record_error(ready, std::move(complete_error));
            next_complete = shard_count;
            break;
          }
        }
        // Advanced only once the hook returned: the backpressure window
        // counts a shard in flight until it is drained.
        ++next_complete;
        if (window != 0) drained.notify_all();
      }
      draining = false;
      if (window != 0) drained.notify_all();
    }
  };

  Loan loan{&worker};
  if (threads > 1) helper_pool().lend(loan, threads - 1);
  worker();  // the caller is one of the workers
  if (threads > 1) helper_pool().wait(loan);
  if (error) std::rethrow_exception(error);
}

}  // namespace aurv::support
