#ifndef DHYFD_UTIL_THREAD_POOL_H_
#define DHYFD_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dhyfd {

/// A fixed-size worker pool with an unbounded FIFO task queue and graceful
/// shutdown. Deliberately simple — no work stealing, one mutex, one
/// condition variable — because profiling jobs are coarse (seconds, not
/// microseconds) and lock discipline matters more than enqueue latency.
///
/// Exceptions escaping a task never kill a worker: they are caught, counted,
/// and forwarded to the exception handler (default: remember the first
/// message, see exceptions_caught() / first_exception_message()).
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Equivalent to shutdown(): drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task without blocking. Returns false (and drops the task)
  /// if the pool is shutting down.
  bool submit(std::function<void()> task) DHYFD_EXCLUDES(mu_);

  /// Runs `shards` invocations of `body(shard)` for shard in [0, shards),
  /// each exactly once, using up to `parallelism` threads including the
  /// caller. Blocks until every shard has finished.
  ///
  /// Execution is help-first: the caller claims shards from a shared counter
  /// itself and enlists at most min(shards, parallelism) - 1 idle workers as
  /// helpers via submit. Because the caller alone can finish all shards,
  /// nesting run_shards inside a pool task cannot deadlock, and because
  /// helpers are capped by idle_threads() a parallel job never oversubscribes
  /// the pool. With parallelism <= 1 (or no idle workers) this degenerates to
  /// a plain sequential loop on the caller.
  ///
  /// Per shard, `span_name` (a string literal; nullptr = no span) is recorded
  /// as a TraceSpan under the caller's trace id — helper tickets go through
  /// the normal trace-context capture, so shards join the request trace.
  /// Counter deltas emitted by shards on helper threads (ObsAdd) are buffered
  /// and replayed on the caller thread after the join, so the caller's sink
  /// chain (TelemetrySink, CostLedgerScope) sees exactly the deltas a
  /// sequential run would have produced, plus one "pool.shard_cpu_ns" counter
  /// charging helper-thread CPU to the caller's ledger.
  ///
  /// Helper shards run under the caller's CancelScope token, so a shard's
  /// CancelScope::CurrentCancelled() polls see the caller's cancel or
  /// expiry. submit() binds no token: its tasks may outlive the
  /// submitter's scope.
  ///
  /// If a shard throws, remaining unclaimed shards are skipped and the first
  /// exception is rethrown on the caller after all claimed shards finish.
  void run_shards(int parallelism, std::size_t shards,
                  const std::function<void(std::size_t)>& body,
                  const char* span_name = nullptr) DHYFD_EXCLUDES(mu_);

  /// Convenience over run_shards: splits [0, n) into min(parallelism, n)
  /// near-equal contiguous chunks and runs `body(shard, begin, end)` for
  /// each. Chunking is a pure function of (n, parallelism), never of thread
  /// timing, so a fixed parallelism degree always produces the same shard
  /// boundaries — the first half of the parallel ≡ sequential argument.
  void parallel_for(
      std::size_t n, int parallelism,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
      const char* span_name = nullptr) DHYFD_EXCLUDES(mu_);

  /// The contiguous [begin, end) range of shard `s` out of `shards` over n
  /// items: the first n % shards shards get one extra item.
  static std::pair<std::size_t, std::size_t> ShardRange(std::size_t n,
                                                        std::size_t shards,
                                                        std::size_t s);

  /// Stops accepting tasks, runs everything already queued, joins the
  /// workers. Idempotent and safe to call from multiple threads (but not
  /// from inside a pool task).
  void shutdown() DHYFD_EXCLUDES(mu_);

  /// Replaces the exception handler invoked (on the worker thread) when a
  /// task throws. Must be called before tasks that may throw are submitted.
  void set_exception_handler(std::function<void(std::exception_ptr)> handler)
      DHYFD_EXCLUDES(mu_);

  int num_threads() const DHYFD_EXCLUDES(mu_);
  std::size_t queue_depth() const DHYFD_EXCLUDES(mu_);
  /// Workers with no task running and none queued for them — the number of
  /// helper slots run_shards may claim right now. Advisory: the value can be
  /// stale by the time the caller acts on it.
  std::size_t idle_threads() const DHYFD_EXCLUDES(mu_);
  std::int64_t tasks_executed() const DHYFD_EXCLUDES(mu_);
  std::int64_t exceptions_caught() const DHYFD_EXCLUDES(mu_);
  /// what() of the first task exception the default handler saw ("" if none).
  std::string first_exception_message() const DHYFD_EXCLUDES(mu_);

 private:
  void worker_loop() DHYFD_EXCLUDES(mu_);
  void default_exception_handler(std::exception_ptr e) DHYFD_EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar not_empty_;  // workers wait: task available / stop
  std::deque<std::function<void()>> queue_ DHYFD_GUARDED_BY(mu_);
  bool stopping_ DHYFD_GUARDED_BY(mu_) = false;
  bool joined_ DHYFD_GUARDED_BY(mu_) = false;
  std::size_t busy_workers_ DHYFD_GUARDED_BY(mu_) = 0;
  std::int64_t tasks_executed_ DHYFD_GUARDED_BY(mu_) = 0;
  std::int64_t exceptions_caught_ DHYFD_GUARDED_BY(mu_) = 0;
  std::string first_exception_message_ DHYFD_GUARDED_BY(mu_);
  std::function<void(std::exception_ptr)> exception_handler_
      DHYFD_GUARDED_BY(mu_);
  // Filled by the constructor (before any concurrency; TSA exempts
  // constructors) and swapped out by the single shutdown() winner.
  std::vector<std::thread> workers_ DHYFD_GUARDED_BY(mu_);
};

}  // namespace dhyfd

#endif  // DHYFD_UTIL_THREAD_POOL_H_
