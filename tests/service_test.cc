#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/profiler.h"
#include "datagen/benchmark_data.h"
#include "query/engine.h"
#include "query/profile_query.h"
#include "util/cancellation.h"

namespace dhyfd {
namespace {

RawTable DemoTable(const std::string& name = "abalone", int rows = 300) {
  return GenerateBenchmark(name, rows);
}

std::string CoverString(const FdSet& cover) {
  std::string out;
  for (const Fd& fd : cover.fds) out += fd.to_string() + "\n";
  return out;
}

TEST(DatasetRegistryTest, EncodesOncePerSemantics) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("t", DemoTable());

  auto r1 = datasets.get("t", NullSemantics::kNullEqualsNull);
  auto r2 = datasets.get("t", NullSemantics::kNullEqualsNull);
  EXPECT_EQ(r1.get(), r2.get());  // same cached relation
  auto r3 = datasets.get("t", NullSemantics::kNullNotEqualsNull);
  EXPECT_NE(r1.get(), r3.get());  // distinct per semantics

  EXPECT_EQ(metrics.counter("dataset.cache_misses").value(), 2);
  EXPECT_EQ(metrics.counter("dataset.cache_hits").value(), 1);
}

TEST(DatasetRegistryTest, UnknownNameThrows) {
  DatasetRegistry datasets;
  EXPECT_THROW(datasets.get("nope", NullSemantics::kNullEqualsNull),
               std::out_of_range);
}

TEST(DatasetRegistryTest, TooWideTableIsRefusedAndKeepsTheOldOne) {
  DatasetRegistry datasets;
  datasets.add_table("t", DemoTable());
  RawTable wide;
  for (int c = 0; c < 257; ++c) wide.header.push_back("c" + std::to_string(c));
  EXPECT_THROW(datasets.add_table("t", wide), std::invalid_argument);
  EXPECT_THROW(datasets.add_table("w", wide), std::invalid_argument);
  EXPECT_FALSE(datasets.contains("w"));
  EXPECT_EQ(datasets.get("t", NullSemantics::kNullEqualsNull)->num_cols(),
            DemoTable().num_cols());
}

TEST(DatasetRegistryTest, MissingFileFailsThenRetries) {
  DatasetRegistry datasets;
  datasets.add_csv_file("f", "/nonexistent/path.csv");
  EXPECT_THROW(datasets.get("f", NullSemantics::kNullEqualsNull),
               std::exception);
  // The failed slot was dropped: a second get re-attempts (and fails again
  // rather than returning a poisoned cached future).
  EXPECT_THROW(datasets.get("f", NullSemantics::kNullEqualsNull),
               std::exception);
}

TEST(DatasetRegistryTest, ConcurrentGettersShareOneEncode) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("t", DemoTable("ncvoter", 800));

  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const Relation>> results(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&datasets, &results, i] {
      results[i] = datasets.get("t", NullSemantics::kNullEqualsNull);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < 8; ++i) EXPECT_EQ(results[0].get(), results[i].get());
  EXPECT_EQ(metrics.counter("dataset.cache_misses").value(), 1);
}

TEST(MetricsTest, HistogramStatsAndSnapshot) {
  MetricsRegistry metrics;
  metrics.counter("c").inc(3);
  metrics.gauge("g").set(7);
  Histogram& h = metrics.histogram("h");
  h.record(0.001);
  h.record(0.02);
  h.record(0.3);
  EXPECT_EQ(h.count(), 3);
  EXPECT_NEAR(h.sum(), 0.321, 1e-9);
  EXPECT_NEAR(h.min(), 0.001, 1e-9);
  EXPECT_NEAR(h.max(), 0.3, 1e-9);
  EXPECT_GE(h.quantile(0.5), 0.001);
  EXPECT_LE(h.quantile(0.5), 0.3);
  std::string snap = metrics.snapshot();
  EXPECT_NE(snap.find("counter c 3"), std::string::npos);
  EXPECT_NE(snap.find("gauge g 7"), std::string::npos);
  EXPECT_NE(snap.find("histogram h count=3"), std::string::npos);
}

TEST(ServiceTest, ConcurrentJobsMatchSerialProfiler) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("abalone", DemoTable("abalone", 300));
  datasets.add_table("ncvoter", DemoTable("ncvoter", 300));

  // Serial references.
  std::vector<std::string> algos = {"dhyfd", "tane", "hyfd", "fdep"};
  std::vector<ProfileReport> expected;
  for (const std::string dataset : {"abalone", "ncvoter"}) {
    auto rel = datasets.get(dataset, NullSemantics::kNullEqualsNull);
    for (const std::string& algo : algos) {
      ProfileOptions opt;
      opt.algorithm = algo;
      expected.push_back(Profiler(opt).profile(*rel));
    }
  }

  JobScheduler scheduler(&datasets, &metrics, {.num_threads = 4});
  std::vector<JobHandlePtr> handles;
  for (const std::string dataset : {"abalone", "ncvoter"}) {
    for (const std::string& algo : algos) {
      ProfileJob job;
      job.dataset = dataset;
      job.options.algorithm = algo;
      handles.push_back(scheduler.submit(job));
    }
  }
  scheduler.wait_all();

  ASSERT_EQ(handles.size(), expected.size());
  for (size_t i = 0; i < handles.size(); ++i) {
    ASSERT_EQ(handles[i]->state(), JobState::kDone) << handles[i]->error();
    const ProfileReport& got = handles[i]->report();
    EXPECT_EQ(CoverString(got.discovery.fds),
              CoverString(expected[i].discovery.fds));
    EXPECT_EQ(CoverString(got.canonical), CoverString(expected[i].canonical));
    EXPECT_EQ(got.ranking.size(), expected[i].ranking.size());
    EXPECT_GT(got.timings.discover_seconds, 0);
  }
  EXPECT_EQ(metrics.counter("jobs.completed").value(), 8);
  EXPECT_EQ(metrics.counter("jobs.submitted").value(), 8);
  EXPECT_EQ(metrics.gauge("jobs.running").value(), 0);
  EXPECT_GE(metrics.histogram("stage.discover_seconds").count(), 8);
}

TEST(ServiceTest, QueryJobsRunThroughScheduler) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("aba", DemoTable("abalone", 200));
  auto rel = datasets.get("aba", NullSemantics::kNullEqualsNull);

  // Serial reference: the query engine run directly.
  DiscoveryQuery query;
  query.top_k = 4;
  QueryResult expected = QueryEngine().execute(*rel, query);

  JobScheduler scheduler(&datasets, &metrics, {.num_threads = 2});
  ProfileJob job;
  job.dataset = "aba";
  auto slot = BindQueryToProfile(job.options, query);
  job.options.canonicalize_and_rank = false;
  JobHandlePtr handle = scheduler.submit(job);
  scheduler.wait_all();

  ASSERT_EQ(handle->state(), JobState::kDone) << handle->error();
  const ProfileReport& got = handle->report();
  ASSERT_TRUE(slot->result.has_value());
  ASSERT_EQ(slot->result->fds.size(), expected.fds.size());
  for (size_t i = 0; i < expected.fds.size(); ++i) {
    EXPECT_EQ(slot->result->fds[i].fd.to_string(),
              expected.fds[i].fd.to_string());
    EXPECT_EQ(slot->result->fds[i].score, expected.fds[i].score);
  }
  // The ranked answer is also surfaced through the generic cover fields.
  EXPECT_EQ(CoverString(got.discovery.fds),
            CoverString(expected.cover()));

  // An invalid spec fails the job with a diagnosable error.
  ProfileJob bad;
  bad.dataset = "aba";
  DiscoveryQuery bad_query;
  bad_query.epsilon = 3.0;
  auto bad_slot = BindQueryToProfile(bad.options, bad_query);
  JobScheduler scheduler2(&datasets, &metrics, {.num_threads = 1});
  JobHandlePtr bad_handle = scheduler2.submit(bad);
  scheduler2.wait_all();
  EXPECT_EQ(bad_handle->state(), JobState::kFailed);
  EXPECT_NE(bad_handle->error().find("invalid discovery query"),
            std::string::npos);
  EXPECT_TRUE(bad_handle->invalid_request());
  EXPECT_FALSE(handle->invalid_request());
}

TEST(ServiceTest, OnFinishRunsOnceOnEveryTerminalPath) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("t", DemoTable());
  JobScheduler scheduler(&datasets, &metrics,
                         {.num_threads = 1, .max_pending = 1});
  std::atomic<int> calls{0};
  auto count = [&calls](const JobHandle& h) {
    EXPECT_TRUE(h.finished());
    calls.fetch_add(1);
  };

  std::atomic<bool> release{false};
  ProfileJob blocker;
  blocker.dataset = "t";
  blocker.options.stage_hook = [&release](ProfileStage, double) {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  JobHandlePtr running = scheduler.submit(blocker);
  running->on_finish(count);  // runs on the worker when the job is done
  while (running->state() == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ProfileJob job;
  job.dataset = "t";
  JobHandlePtr cancelled = scheduler.submit(job);
  cancelled->on_finish(count);  // runs when the worker drops it
  cancelled->cancel();
  JobHandlePtr refused = scheduler.submit(job);
  ASSERT_TRUE(refused->rejected());
  refused->on_finish(count);  // already terminal: runs at once
  EXPECT_EQ(calls.load(), 1);

  release.store(true);
  scheduler.shutdown();  // joins the worker, so its continuations have run
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(running->state(), JobState::kDone);
  EXPECT_EQ(cancelled->state(), JobState::kCancelled);
  JobHandlePtr late = scheduler.submit(job);
  late->on_finish(count);
  EXPECT_EQ(late->state(), JobState::kFailed);
  EXPECT_EQ(calls.load(), 4);
}

TEST(ServiceTest, CancelQueuedJobNeverRuns) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("t", DemoTable());

  JobScheduler scheduler(&datasets, &metrics, {.num_threads = 1});
  // Occupy the single worker long enough to cancel the queued job behind it.
  std::atomic<bool> release{false};
  ProfileJob blocker;
  blocker.dataset = "t";
  blocker.options.stage_hook = [&release](ProfileStage, double) {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  JobHandlePtr first = scheduler.submit(blocker);

  ProfileJob queued;
  queued.dataset = "t";
  JobHandlePtr second = scheduler.submit(queued);
  second->cancel();
  release.store(true);

  scheduler.wait_all();
  EXPECT_EQ(first->state(), JobState::kDone);
  EXPECT_EQ(second->state(), JobState::kCancelled);
  EXPECT_EQ(second->run_seconds(), 0);  // never picked up
  EXPECT_THROW(second->report(), std::runtime_error);
  EXPECT_EQ(metrics.counter("jobs.cancelled").value(), 1);
}

TEST(ServiceTest, CancelRunningJobStopsEarly) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  // Big enough that fdep's O(rows^2) pair scan takes well over a second.
  datasets.add_table("big", DemoTable("ncvoter", 6000));

  JobScheduler scheduler(&datasets, &metrics, {.num_threads = 1});
  ProfileJob job;
  job.dataset = "big";
  job.options.algorithm = "fdep";
  JobHandlePtr handle = scheduler.submit(job);

  // Wait for it to actually start, then cancel mid-run.
  while (handle->state() == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  handle->cancel();
  handle->wait();

  EXPECT_EQ(handle->state(), JobState::kCancelled);
  // Stopped early: nowhere near a full fdep run over 6000^2 row pairs.
  EXPECT_LT(handle->run_seconds(), 30.0);
  const ProfileReport& report = handle->report();  // partial but present
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(metrics.counter("jobs.cancelled").value(), 1);
  EXPECT_EQ(metrics.counter("jobs.completed").value(), 0);
}

TEST(ServiceTest, PerJobTimeLimitExpiresWithNoRanking) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("big", DemoTable("ncvoter", 6000));

  JobScheduler scheduler(&datasets, &metrics, {.num_threads = 1});
  ProfileJob job;
  job.dataset = "big";
  job.options.algorithm = "fdep";
  job.time_limit_seconds = 0.02;
  JobHandlePtr handle = scheduler.submit(job);
  handle->wait();

  ASSERT_EQ(handle->state(), JobState::kDeadlineExpired) << handle->error();
  const ProfileReport& report = handle->report();
  EXPECT_TRUE(report.cancelled);
  EXPECT_TRUE(report.discovery.stats.timed_out);
  EXPECT_TRUE(report.canonical.empty());
  EXPECT_TRUE(report.ranking.empty());
  EXPECT_EQ(metrics.counter("jobs.deadline_expired").value(), 1);
  EXPECT_EQ(metrics.counter("jobs.completed").value(), 0);
  EXPECT_EQ(metrics.counter("jobs.cancelled").value(), 0);
}

TEST(ServiceTest, TimeLimitReachesPastDiscovery) {
  // The horse analog's left-reduced cover is huge (~187k FDs) and its
  // canonical cover alone takes seconds, so a 1 s limit must stop whichever
  // stage it lands in, and the job must answer soon after, with no
  // canonical cover or ranking at all.
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("horse", GenerateBenchmark("horse", 368));
  JobScheduler scheduler(&datasets, &metrics, {.num_threads = 4});
  for (int degree : {1, 4}) {
    ProfileJob job;
    job.dataset = "horse";
    job.options.parallelism = degree;
    job.time_limit_seconds = 1.0;
    JobHandlePtr handle = scheduler.submit(job);
    handle->wait();
    ASSERT_EQ(handle->state(), JobState::kDeadlineExpired)
        << "degree " << degree << " " << handle->error();
    EXPECT_LT(handle->run_seconds(), 1.5) << "degree " << degree;
    const ProfileReport& report = handle->report();
    EXPECT_TRUE(report.cancelled) << "degree " << degree;
    EXPECT_TRUE(report.canonical.empty()) << "degree " << degree;
    EXPECT_TRUE(report.ranking.empty()) << "degree " << degree;
    EXPECT_EQ(report.dataset_redundancy.num_values, 0) << "degree " << degree;
  }
  EXPECT_EQ(metrics.counter("jobs.deadline_expired").value(), 2);
  EXPECT_EQ(metrics.counter("jobs.completed").value(), 0);
}

TEST(ServiceTest, MaxPendingRejectsInsteadOfBlocking) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("t", DemoTable());

  JobScheduler scheduler(&datasets, &metrics,
                         {.num_threads = 1, .max_pending = 2});
  // Occupy the single worker so submissions pile up as pending.
  std::atomic<bool> release{false};
  ProfileJob blocker;
  blocker.dataset = "t";
  blocker.options.stage_hook = [&release](ProfileStage, double) {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  JobHandlePtr running = scheduler.submit(blocker);
  while (running->state() == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ProfileJob job;
  job.dataset = "t";
  JobHandlePtr q1 = scheduler.submit(job);
  JobHandlePtr q2 = scheduler.submit(job);
  EXPECT_FALSE(q1->rejected());
  EXPECT_FALSE(q2->rejected());

  // Third pending submission hits the bound: immediately kFailed with
  // rejected() set, no blocking, no handle left un-terminal.
  JobHandlePtr refused = scheduler.submit(job);
  EXPECT_TRUE(refused->rejected());
  EXPECT_EQ(refused->state(), JobState::kFailed);
  EXPECT_NE(refused->error().find("queue full"), std::string::npos);
  EXPECT_THROW(refused->report(), std::runtime_error);
  EXPECT_EQ(metrics.counter("jobs.rejected").value(), 1);

  release.store(true);
  scheduler.wait_all();
  // The accepted jobs were untouched by the rejection.
  EXPECT_EQ(q1->state(), JobState::kDone);
  EXPECT_EQ(q2->state(), JobState::kDone);
  EXPECT_EQ(metrics.counter("jobs.completed").value(), 3);
  // Capacity freed: new submissions are accepted again.
  JobHandlePtr after = scheduler.submit(job);
  EXPECT_FALSE(after->rejected());
  after->wait();
  EXPECT_EQ(after->state(), JobState::kDone);
}

TEST(ServiceTest, FinishedJobIsReleasedOnNextSubmit) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("t", DemoTable("abalone", 100));
  // One worker: the second job only runs once the first job's task returned,
  // so nothing but the scheduler's own bookkeeping could still hold it.
  JobScheduler scheduler(&datasets, &metrics, {.num_threads = 1});
  ProfileJob job;
  job.dataset = "t";
  JobHandlePtr first = scheduler.submit(job);
  first->wait();
  std::weak_ptr<JobHandle> watch = first;
  first.reset();
  JobHandlePtr second = scheduler.submit(job);
  second->wait();
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(second->state(), JobState::kDone);
}

TEST(ServiceTest, PriorityOrderOnSingleWorker) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("t", DemoTable());
  // Pre-encode so job runtimes don't include the one-time encode.
  datasets.get("t", NullSemantics::kNullEqualsNull);

  JobScheduler scheduler(&datasets, &metrics, {.num_threads = 1});
  std::mutex mu;
  std::vector<int> started;  // priorities in execution order
  std::atomic<bool> blocker_running{false};
  std::atomic<bool> release{false};

  ProfileJob blocker;
  blocker.dataset = "t";
  blocker.options.stage_hook = [&blocker_running, &release](ProfileStage, double) {
    blocker_running.store(true);
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  scheduler.submit(blocker);
  // The lone worker must hold the blocker before the jobs arrive; a job
  // queued beside it would be popped by priority ahead of it.
  while (!blocker_running.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Submitted low-priority first; the high-priority job must still run first
  // once the blocker releases the lone worker.
  for (int priority : {0, 1, 5, 3}) {
    ProfileJob job;
    job.dataset = "t";
    job.priority = priority;
    job.options.stage_hook = [&mu, &started, priority](ProfileStage stage, double) {
      if (stage == ProfileStage::kDiscover) {
        std::lock_guard<std::mutex> lock(mu);
        started.push_back(priority);
      }
    };
    scheduler.submit(job);
  }
  release.store(true);
  scheduler.wait_all();

  ASSERT_EQ(started.size(), 4u);
  EXPECT_EQ(started, (std::vector<int>{5, 3, 1, 0}));
}

TEST(ServiceTest, BadAlgorithmAndBadDatasetFailCleanly) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("t", DemoTable());
  JobScheduler scheduler(&datasets, &metrics, {.num_threads = 2});

  ProfileJob bad_algo;
  bad_algo.dataset = "t";
  bad_algo.options.algorithm = "no_such_algorithm";
  JobHandlePtr h1 = scheduler.submit(bad_algo);

  ProfileJob bad_dataset;
  bad_dataset.dataset = "no_such_dataset";
  JobHandlePtr h2 = scheduler.submit(bad_dataset);

  scheduler.wait_all();
  EXPECT_EQ(h1->state(), JobState::kFailed);
  EXPECT_NE(h1->error().find("no_such_algorithm"), std::string::npos);
  EXPECT_EQ(h2->state(), JobState::kFailed);
  EXPECT_NE(h2->error().find("no_such_dataset"), std::string::npos);
  EXPECT_THROW(h1->report(), std::runtime_error);
  EXPECT_EQ(metrics.counter("jobs.failed").value(), 2);
}

TEST(ServiceTest, SubmitAfterShutdownFailsFast) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("t", DemoTable());
  JobScheduler scheduler(&datasets, &metrics, {.num_threads = 1});
  scheduler.shutdown();
  ProfileJob job;
  job.dataset = "t";
  JobHandlePtr handle = scheduler.submit(job);
  EXPECT_EQ(handle->state(), JobState::kFailed);
  EXPECT_NE(handle->error().find("shut down"), std::string::npos);
}

TEST(ServiceTest, ShutdownDrainsQueuedJobs) {
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  datasets.add_table("t", DemoTable());
  std::vector<JobHandlePtr> handles;
  {
    JobScheduler scheduler(&datasets, &metrics, {.num_threads = 2});
    for (int i = 0; i < 12; ++i) {
      ProfileJob job;
      job.dataset = "t";
      handles.push_back(scheduler.submit(job));
    }
  }  // destructor == shutdown: must run everything queued
  for (const JobHandlePtr& handle : handles) {
    EXPECT_EQ(handle->state(), JobState::kDone) << handle->error();
  }
  EXPECT_EQ(metrics.counter("jobs.completed").value(), 12);
}

TEST(ServiceTest, StageTimingsReportedInSummary) {
  ProfileOptions options;
  ProfileReport report = Profiler(options).profile(DemoTable("abalone", 200));
  EXPECT_GT(report.timings.encode_seconds, 0);
  EXPECT_GT(report.timings.discover_seconds, 0);
  EXPECT_GT(report.timings.canonical_seconds, 0);
  EXPECT_GT(report.timings.ranking_seconds, 0);
  EXPECT_GE(report.timings.total_seconds(), report.timings.discover_seconds);
  EXPECT_NE(report.summary().find("stage timings:"), std::string::npos);
}

TEST(ServiceTest, CancelScopeExpiryStopsEveryStage) {
  // A library caller bounds a whole profile run with an expiring token
  // instead of a per-algorithm time limit: discovery and every later stage
  // observe it.
  CancelToken tl(1e-6);
  ProfileReport report;
  {
    CancelScope scope(&tl);
    report = Profiler().profile(DemoTable("abalone", 300));
  }
  EXPECT_EQ(tl.reason(), CancelToken::Reason::kExpired);
  EXPECT_TRUE(report.cancelled);
  EXPECT_TRUE(report.discovery.stats.timed_out);
  EXPECT_TRUE(report.canonical.empty());
  EXPECT_TRUE(report.ranking.empty());
}

}  // namespace
}  // namespace dhyfd
