#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/cost_ledger.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/cancellation.h"

namespace dhyfd {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.submit([&count] { count.fetch_add(1); }));
  }
  pool.shutdown();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.tasks_executed(), 100);
}

TEST(ThreadPoolTest, SingleThreadPreservesFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  pool.shutdown();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ShutdownUnderLoadDrainsQueue) {
  // Many short tasks still queued when shutdown starts: every one must run
  // exactly once, and shutdown must not hang.
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 500; ++i) {
      pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        count.fetch_add(1);
      });
    }
    pool.shutdown();
  }
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRefused) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
  bool ran = false;
  EXPECT_FALSE(pool.submit([&ran] { ran = true; }));  // dropped, never run
  EXPECT_FALSE(ran);
  EXPECT_EQ(pool.tasks_executed(), 0);
}

TEST(ThreadPoolTest, DestructorJoinsWorkers) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) pool.submit([&count] { count.fetch_add(1); });
  }  // ~ThreadPool must finish all 20 before returning
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, ExceptionsAreCapturedNotFatal) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([] { throw std::runtime_error("task boom"); });
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.shutdown();
  EXPECT_EQ(count.load(), 10);  // workers survived the throwing tasks
  EXPECT_EQ(pool.exceptions_caught(), 10);
  EXPECT_EQ(pool.first_exception_message(), "task boom");
  EXPECT_EQ(pool.tasks_executed(), 20);
}

TEST(ThreadPoolTest, CustomExceptionHandlerReceivesException) {
  ThreadPool pool(1);
  std::atomic<int> handled{0};
  std::string message;
  pool.set_exception_handler([&handled, &message](std::exception_ptr e) {
    handled.fetch_add(1);
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& ex) {
      message = ex.what();
    }
  });
  pool.submit([] { throw std::runtime_error("custom"); });
  pool.shutdown();
  EXPECT_EQ(handled.load(), 1);
  EXPECT_EQ(message, "custom");
  EXPECT_EQ(pool.exceptions_caught(), 0);  // default handler bypassed
}

TEST(ThreadPoolTest, ManyProducersManyConsumers) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &count] {
      for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(pool.submit([&count] { count.fetch_add(1); }));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  pool.shutdown();
  EXPECT_EQ(count.load(), 400);
}

// ------------------------------------------------------- run_shards et al.

TEST(ThreadPoolShardTest, ShardRangePartitionsExactly) {
  // Every index lands in exactly one shard, shards are contiguous, and the
  // first n % shards shards carry the remainder.
  for (std::size_t n : {1u, 2u, 7u, 8u, 100u}) {
    for (std::size_t shards : {1u, 2u, 3u, 8u}) {
      if (shards > n) continue;
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        auto [begin, end] = ThreadPool::ShardRange(n, shards, s);
        EXPECT_EQ(begin, prev_end) << "n=" << n << " shards=" << shards;
        EXPECT_LE(end - begin, n / shards + 1);
        EXPECT_GE(end - begin, n / shards);
        covered += end - begin;
        prev_end = end;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(ThreadPoolShardTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  // Plain ints are safe here because shard ranges are disjoint; were the
  // chunking ever to hand an index to two shards, TSan would flag the race.
  std::vector<int> visits(kN, 0);
  pool.parallel_for(kN, 4, [&visits](std::size_t, std::size_t b,
                                     std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++visits[i];
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i], 1);
}

TEST(ThreadPoolShardTest, ParallelForChunkingIsDegreeDeterministic) {
  // The (shard, begin, end) triples seen at degree P are a pure function of
  // (n, P) — this is what makes parallel covers bit-identical: the merge
  // concatenates per-shard slices whose boundaries never move between runs.
  ThreadPool pool(4);
  auto collect = [&pool](std::size_t n, int par) {
    std::vector<std::pair<std::size_t, std::size_t>> ranges(
        std::min<std::size_t>(n, par));
    Mutex mu;
    pool.parallel_for(n, par, [&](std::size_t s, std::size_t b,
                                  std::size_t e) {
      MutexLock lock(&mu);
      ranges[s] = {b, e};
    });
    return ranges;
  };
  EXPECT_EQ(collect(103, 4), collect(103, 4));
  EXPECT_EQ(collect(103, 1),
            (std::vector<std::pair<std::size_t, std::size_t>>{{0, 103}}));
}

TEST(ThreadPoolShardTest, RunShardsSequentialWhenDegreeOne) {
  // parallelism <= 1 must enlist no helpers: shards run on the caller, in
  // order, so a degree-1 run is exactly the sequential code path.
  ThreadPool pool(4);
  std::vector<std::size_t> order;
  pool.run_shards(1, 5, [&order](std::size_t s) { order.push_back(s); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pool.tasks_executed(), 0);  // no helper tickets were queued
}

TEST(ThreadPoolShardTest, RunShardsRethrowsFirstShardError) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run_shards(4, 16,
                      [](std::size_t s) {
                        if (s == 3) throw std::runtime_error("shard boom");
                      }),
      std::runtime_error);
  // The pool survives: a later batch still runs to completion.
  std::atomic<int> count{0};
  pool.run_shards(4, 8, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolShardTest, NestedRunShardsFromWorkerDoesNotDeadlock) {
  // A pool task fanning out over the same (fully busy) pool must complete:
  // the inner run_shards caller drains every shard itself when no worker is
  // idle. This is the scheduler's shape — jobs run on pool workers and each
  // job's discovery shards fan out over the same pool.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  std::atomic<int> outer_done{0};
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(pool.submit([&pool, &inner_total, &outer_done] {
      pool.run_shards(2, 6, [&inner_total](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        inner_total.fetch_add(1);
      });
      outer_done.fetch_add(1);
    }));
  }
  pool.shutdown();
  EXPECT_EQ(outer_done.load(), 4);
  EXPECT_EQ(inner_total.load(), 24);
}

TEST(ThreadPoolShardTest, TraceContextReachesEveryShard) {
  // Shards observe the caller's trace id whether they ran on the caller or
  // on a helper (helper tickets are wrapped by CaptureTraceContext).
  ThreadPool pool(4);
  constexpr std::uint64_t kTraceId = 7777;
  TraceIdScope scope(kTraceId);
  std::vector<std::uint64_t> seen(16, 0);
  pool.run_shards(4, 16, [&seen](std::size_t s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    seen[s] = CurrentTraceId();
  });
  for (std::size_t s = 0; s < seen.size(); ++s) {
    EXPECT_EQ(seen[s], kTraceId) << "shard " << s;
  }
}

TEST(ThreadPoolShardTest, HelperShardsPollTheCallersCancelToken) {
  // run_shards binds the caller's token on its helpers, so a shard's
  // CancelScope::CurrentCancelled() sees the caller's cancel or expiry
  // wherever it runs. submit() binds none: its task may outlive the scope.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  CancelToken token;
  token.cancel();
  std::vector<const CancelToken*> seen(16, nullptr);
  // One byte per shard (not vector<bool>, whose bits share words).
  std::vector<char> stopped(16, 0);
  std::vector<char> on_helper(16, 0);
  std::atomic<const CancelToken*> submitted_saw{&token};
  {
    CancelScope scope(&token);
    pool.run_shards(4, 16, [&](std::size_t s) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      seen[s] = CancelScope::Current();
      on_helper[s] = std::this_thread::get_id() != caller;
      stopped[s] = CancelScope::CurrentCancelled();
    });
    ASSERT_TRUE(pool.submit([&submitted_saw] {
      submitted_saw.store(CancelScope::Current());
    }));
    pool.shutdown();
  }
  int helper_shards = 0;
  for (std::size_t s = 0; s < seen.size(); ++s) {
    EXPECT_EQ(seen[s], &token) << "shard " << s;
    EXPECT_TRUE(stopped[s]) << "shard " << s;
    helper_shards += on_helper[s];
  }
  EXPECT_GT(helper_shards, 0);
  EXPECT_EQ(submitted_saw.load(), nullptr);
  EXPECT_EQ(CancelScope::Current(), nullptr);
}

/// Records every ObsAdd by name; installed on the caller thread only, so
/// any count it sees from helper shards must have come through the
/// run_shards delta relay.
class RecordingSink : public ObsSink {
 public:
  void add(const char* name, std::int64_t delta) override {
    counts_[name] += delta;
  }
  std::int64_t count(const std::string& name) const {
    auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, std::int64_t> counts_;
};

TEST(ThreadPoolShardTest, HelperCountersRelayToCallerSink) {
  ThreadPool pool(4);
  RecordingSink sink;
  {
    ObsScope scope(&sink);
    pool.run_shards(4, 32, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ObsAdd("discover.validator.calls", 3);
    });
  }
  // All 32 shards' counters arrive regardless of which thread ran them.
  EXPECT_EQ(sink.count("discover.validator.calls"), 32 * 3);
}

TEST(ThreadPoolShardTest, CostLedgerAggregatesAcrossHelpers) {
  // A CostLedgerScope around a parallel batch must absorb helper-side
  // classified counters (via the relay) on top of the caller's own.
  ThreadPool pool(4);
  CostLedger ledger;
  {
    CostLedgerScope scope(&ledger);
    pool.run_shards(4, 32, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ObsAdd("discover.validator.calls", 1);
      ObsAdd("partition.cache_hits", 2);
    });
  }
  EXPECT_EQ(ledger.validations, 32);
  EXPECT_EQ(ledger.cache_hits, 64);
  // The scope charges the caller's thread clock; helper CPU arrives as
  // pool.shard_cpu_ns deltas. Both are >= 0 and summed into cpu_ns.
  EXPECT_GE(ledger.cpu_ns, 0);
}

}  // namespace
}  // namespace dhyfd
