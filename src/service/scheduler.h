#ifndef DHYFD_SERVICE_SCHEDULER_H_
#define DHYFD_SERVICE_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "obs/obs_schema.gen.h"
#include "service/dataset_registry.h"
#include "service/job.h"
#include "service/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace dhyfd {

struct SchedulerOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int num_threads = 0;
  /// Bound on queued-but-not-running jobs (0 = unbounded). When full,
  /// submit() blocks until a worker frees a slot.
  std::size_t max_queue = 0;
  /// Hard admission bound on pending (queued-but-not-running) jobs
  /// (0 = unbounded). Unlike max_queue, hitting this limit never blocks:
  /// submit() returns a kFailed handle with rejected() set, so a network
  /// front end can answer "server busy" instead of stalling its event loop.
  std::size_t max_pending = 0;
};

/// The service core: accepts ProfileJobs, runs them on a ThreadPool in
/// priority order (ties FIFO), tracks per-job state, enforces per-job time
/// limits and cooperative cancellation through each job's CancelToken, and
/// reports into a MetricsRegistry:
///
///   counters   jobs.submitted / completed / failed / cancelled /
///              deadline_expired / rejected (completed counts only jobs
///              that returned a full report)
///   gauges     jobs.queued, jobs.running
///   histograms jobs.queue_seconds, jobs.run_seconds, and
///              stage.{encode,discover,canonical,rank}_seconds
///
/// Datasets are resolved by name through the DatasetRegistry, so concurrent
/// jobs over the same table share one encoded relation.
class JobScheduler {
 public:
  /// Neither registry is owned; both must outlive the scheduler.
  JobScheduler(DatasetRegistry* datasets, MetricsRegistry* metrics,
               SchedulerOptions options = {});

  /// Equivalent to shutdown().
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues a job; returns its handle immediately. Returns a kFailed
  /// handle (never nullptr) if the scheduler is already shut down, or — with
  /// rejected() set — if options.max_pending jobs are already waiting.
  JobHandlePtr submit(ProfileJob job) DHYFD_EXCLUDES(mu_);

  /// Stops accepting jobs, runs everything queued, joins the workers.
  /// Idempotent. Queued jobs whose handles were cancelled are dropped.
  void shutdown() DHYFD_EXCLUDES(mu_);

  /// Convenience: blocks until every job submitted so far is terminal.
  void wait_all() const DHYFD_EXCLUDES(mu_);

  int num_threads() const { return pool_.num_threads(); }
  std::int64_t queued_jobs() const { return metrics_->gauge(kObsJobsQueued).value(); }
  std::int64_t running_jobs() const { return metrics_->gauge(kObsJobsRunning).value(); }

 private:
  struct PendingOrder {
    bool operator()(const JobHandlePtr& a, const JobHandlePtr& b) const;
  };

  /// Pool task: pops the best pending job and runs it to a terminal state.
  void run_one() DHYFD_EXCLUDES(mu_);
  void execute(const JobHandlePtr& handle) DHYFD_EXCLUDES(mu_);
  /// Marks every still-queued pending job cancelled (shutdown cleanup).
  void reclaim_pending() DHYFD_EXCLUDES(mu_);

  DatasetRegistry* datasets_;
  MetricsRegistry* metrics_;
  const std::size_t max_pending_;
  ThreadPool pool_;

  mutable Mutex mu_;
  std::priority_queue<JobHandlePtr, std::vector<JobHandlePtr>, PendingOrder>
      pending_ DHYFD_GUARDED_BY(mu_);
  // What wait_all() waits on; submit() drops the handles already terminal.
  std::vector<JobHandlePtr> unfinished_ DHYFD_GUARDED_BY(mu_);
  std::uint64_t next_id_ DHYFD_GUARDED_BY(mu_) = 1;
  bool shutdown_ DHYFD_GUARDED_BY(mu_) = false;
};

}  // namespace dhyfd

#endif  // DHYFD_SERVICE_SCHEDULER_H_
