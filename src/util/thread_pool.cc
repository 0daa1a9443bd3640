#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "obs/cost_ledger.h"
#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "obs/trace.h"
#include "util/cancellation.h"

namespace dhyfd {

namespace {

/// Trace-context propagation: a task submitted from a traced context (a
/// job's worker fanning out, a traced main thread) runs under the same
/// trace id on whichever worker picks it up. Free when no context is set.
std::function<void()> CaptureTraceContext(std::function<void()> task) {
  std::uint64_t trace_id = CurrentTraceId();
  if (trace_id == 0) return task;
  return [trace_id, task = std::move(task)] {
    TraceIdScope scope(trace_id);
    task();
  };
}

/// Per-helper counter buffer: shards on helper threads record into this
/// instead of the (single-threaded) per-job sink chain; run_shards replays
/// the coalesced deltas on the caller thread after the join. Names are
/// string literals, so coalescing compares pointers.
class DeltaBuffer : public ObsSink {
 public:
  void add(const char* name, std::int64_t delta) override {
    for (auto& [n, d] : deltas_) {
      if (n == name) {
        d += delta;
        return;
      }
    }
    deltas_.emplace_back(name, delta);
  }

  std::vector<std::pair<const char*, std::int64_t>>& deltas() {
    return deltas_;
  }

 private:
  std::vector<std::pair<const char*, std::int64_t>> deltas_;
};

}  // namespace

ThreadPool::ThreadPool(int num_threads, std::size_t max_queue)
    : max_queue_(max_queue) {
  exception_handler_ = [this](std::exception_ptr e) {
    default_exception_handler(e);
  };
  int n = std::max(1, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::enqueue_locked(std::function<void()> task) {
  queue_.push_back(CaptureTraceContext(std::move(task)));
  not_empty_.notify_one();
}

bool ThreadPool::submit(std::function<void()> task) {
  MutexLock lock(&mu_);
  while (!stopping_ && max_queue_ != 0 && queue_.size() >= max_queue_) {
    not_full_.wait(lock);
  }
  if (stopping_) return false;
  enqueue_locked(std::move(task));
  return true;
}

bool ThreadPool::try_submit(std::function<void()> task) {
  MutexLock lock(&mu_);
  if (stopping_) return false;
  if (max_queue_ != 0 && queue_.size() >= max_queue_) return false;
  enqueue_locked(std::move(task));
  return true;
}

void ThreadPool::shutdown() {
  std::vector<std::thread> to_join;
  {
    MutexLock lock(&mu_);
    stopping_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
    if (joined_) return;
    joined_ = true;
    to_join.swap(workers_);
  }
  for (std::thread& w : to_join) w.join();
}

int ThreadPool::num_threads() const {
  MutexLock lock(&mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::set_exception_handler(
    std::function<void(std::exception_ptr)> handler) {
  MutexLock lock(&mu_);
  exception_handler_ = std::move(handler);
}

std::size_t ThreadPool::queue_depth() const {
  MutexLock lock(&mu_);
  return queue_.size();
}

std::size_t ThreadPool::idle_threads() const {
  MutexLock lock(&mu_);
  std::size_t committed = busy_workers_ + queue_.size();
  return workers_.size() > committed ? workers_.size() - committed : 0;
}

std::pair<std::size_t, std::size_t> ThreadPool::ShardRange(std::size_t n,
                                                           std::size_t shards,
                                                           std::size_t s) {
  std::size_t base = n / shards;
  std::size_t extra = n % shards;
  std::size_t begin = s * base + std::min(s, extra);
  std::size_t end = begin + base + (s < extra ? 1 : 0);
  return {begin, end};
}

void ThreadPool::run_shards(int parallelism, std::size_t shards,
                            const std::function<void(std::size_t)>& body,
                            const char* span_name) {
  if (shards == 0) return;

  struct State {
    Mutex mu;
    CondVar helpers_done;
    int helpers_active DHYFD_GUARDED_BY(mu) = 0;
    std::exception_ptr error DHYFD_GUARDED_BY(mu);
    std::vector<std::pair<const char*, std::int64_t>> deltas
        DHYFD_GUARDED_BY(mu);
    std::atomic<std::size_t> next{0};
    std::atomic<bool> abort{false};
  };
  State state;

  // Claims shards until the counter runs out (or a shard threw somewhere).
  // Runs on the caller and on every helper; each shard index is handed out
  // exactly once by the fetch_add.
  auto drain = [&state, &body, span_name, shards] {
    for (;;) {
      if (state.abort.load(std::memory_order_relaxed)) return;
      std::size_t shard = state.next.fetch_add(1, std::memory_order_relaxed);
      if (shard >= shards) return;
      try {
        TraceSpan span(span_name != nullptr ? span_name : kObsPoolShard);
        body(shard);
      } catch (...) {
        state.abort.store(true, std::memory_order_relaxed);
        MutexLock lock(&state.mu);
        if (!state.error) state.error = std::current_exception();
        return;
      }
    }
  };

  // Enlist idle workers, capped so caller + helpers <= parallelism. Helpers
  // are strictly optional — if the queue is full, the pool is stopping, or
  // every worker is busy, the caller just runs all shards itself.
  std::size_t helpers_wanted = 0;
  if (parallelism > 1 && shards > 1) {
    helpers_wanted = std::min({shards, static_cast<std::size_t>(parallelism),
                               idle_threads() + 1}) -
                     1;
  }
  // Helpers poll the caller's stop signal. The raw pointer is safe here,
  // and only here: run_shards returns only after every helper finished.
  const CancelToken* token = CancelScope::Current();
  for (std::size_t h = 0; h < helpers_wanted; ++h) {
    {
      MutexLock lock(&state.mu);
      ++state.helpers_active;
    }
    bool queued = try_submit([&state, &drain, token] {
      DeltaBuffer buffer;
      std::int64_t cpu_start = CurrentThreadCpuNs();
      {
        ObsScope scope(&buffer);
        CancelScope cancel_scope(token);
        drain();
      }
      buffer.add(kObsPoolShardCpuNs, CurrentThreadCpuNs() - cpu_start);
      MutexLock lock(&state.mu);
      for (auto& d : buffer.deltas()) state.deltas.push_back(d);
      --state.helpers_active;
      state.helpers_done.notify_all();
    });
    if (!queued) {
      MutexLock lock(&state.mu);
      --state.helpers_active;
      break;
    }
  }

  // The caller thread already carries the job's sink chain — no buffering.
  drain();

  std::exception_ptr error;
  std::vector<std::pair<const char*, std::int64_t>> deltas;
  {
    MutexLock lock(&state.mu);
    while (state.helpers_active > 0) state.helpers_done.wait(lock);
    error = state.error;
    deltas.swap(state.deltas);
  }
  // Replay helper-side counters on the caller thread so the per-job sink
  // chain (TelemetrySink, CostLedgerScope) aggregates them — even when a
  // shard threw, the work that did happen stays accounted.
  for (const auto& [name, delta] : deltas) ObsAdd(name, delta);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(
    std::size_t n, int parallelism,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
    const char* span_name) {
  if (n == 0) return;
  std::size_t shards = std::min(n, static_cast<std::size_t>(
                                       std::max(1, parallelism)));
  run_shards(
      parallelism, shards,
      [&body, n, shards](std::size_t s) {
        auto [begin, end] = ShardRange(n, shards, s);
        body(s, begin, end);
      },
      span_name);
}

std::int64_t ThreadPool::tasks_executed() const {
  MutexLock lock(&mu_);
  return tasks_executed_;
}

std::int64_t ThreadPool::exceptions_caught() const {
  MutexLock lock(&mu_);
  return exceptions_caught_;
}

std::string ThreadPool::first_exception_message() const {
  MutexLock lock(&mu_);
  return first_exception_message_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    std::function<void(std::exception_ptr)> handler;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && queue_.empty()) not_empty_.wait(lock);
      // Graceful shutdown: keep draining queued tasks even when stopping.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      handler = exception_handler_;
      ++busy_workers_;
      not_full_.notify_one();
    }
    try {
      task();
    } catch (...) {
      handler(std::current_exception());
    }
    MutexLock lock(&mu_);
    --busy_workers_;
    ++tasks_executed_;
  }
}

void ThreadPool::default_exception_handler(std::exception_ptr e) {
  std::string message = "unknown exception";
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    message = ex.what();
  } catch (...) {
  }
  MutexLock lock(&mu_);
  ++exceptions_caught_;
  if (first_exception_message_.empty()) first_exception_message_ = message;
}

}  // namespace dhyfd

