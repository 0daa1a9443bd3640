#include "service/scheduler.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/cancellation.h"
#include "util/timer.h"

namespace dhyfd {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 4;
}

}  // namespace

bool JobScheduler::PendingOrder::operator()(const JobHandlePtr& a,
                                            const JobHandlePtr& b) const {
  // priority_queue pops the "largest": higher priority wins, then lower id
  // (earlier submission) wins.
  if (a->job_.priority != b->job_.priority) {
    return a->job_.priority < b->job_.priority;
  }
  return a->id_ > b->id_;
}

JobScheduler::JobScheduler(DatasetRegistry* datasets, MetricsRegistry* metrics,
                           SchedulerOptions options)
    : datasets_(datasets),
      metrics_(metrics),
      max_pending_(options.max_pending),
      pool_(ResolveThreads(options.num_threads), options.max_queue) {}

JobScheduler::~JobScheduler() { shutdown(); }

JobHandlePtr JobScheduler::submit(ProfileJob job) {
  JobHandlePtr handle;
  {
    MutexLock lock(&mu_);
    handle = JobHandlePtr(new JobHandle(next_id_++, std::move(job)));
    Tracer& tracer = Tracer::Global();
    if (handle->job_.trace_id != 0) {
      // The caller (e.g. the net server relaying a client-stamped trace
      // context) already owns a trace id; adopt it so this job's spans land
      // in the caller's tree instead of a fresh one.
      handle->trace_id_ = handle->job_.trace_id;
      if (tracer.enabled()) handle->submit_ts_us_ = tracer.now_us();
    } else if (tracer.enabled()) {
      handle->trace_id_ = tracer.next_trace_id();
      handle->submit_ts_us_ = tracer.now_us();
    }
    if (shutdown_) {
      handle->finish({.error = "scheduler is shut down"});
      return handle;
    }
    if (max_pending_ > 0 && pending_.size() >= max_pending_) {
      // Admission backstop: refuse instead of queueing without bound (or
      // blocking the caller, which may be a server's event loop).
      handle->rejected_ = true;
      metrics_->counter(kObsJobsRejected).inc();
      handle->finish({.error = "job queue full (" +
                               std::to_string(pending_.size()) + " pending)"});
      return handle;
    }
    // Lock order: mu_, then each handle's mu_ inside finished().
    std::erase_if(unfinished_, [](const JobHandlePtr& h) { return h->finished(); });
    unfinished_.push_back(handle);
    pending_.push(handle);
    metrics_->counter(kObsJobsSubmitted).inc();
    metrics_->gauge(kObsJobsQueued).set(static_cast<std::int64_t>(pending_.size()));
  }
  // One pool ticket per pending job; each ticket pops the then-best job.
  // This may block while the pool queue is at its bound.
  if (!pool_.submit([this] { run_one(); })) {
    // Shutdown raced the submit: one ticket was lost, so one pending job
    // would never be served. Reclaim everything still queued.
    reclaim_pending();
  }
  return handle;
}

void JobScheduler::reclaim_pending() {
  // A job still in pending_ was never popped by run_one, so it is queued.
  // Continuations run outside mu_.
  std::vector<JobHandlePtr> reclaimed;
  {
    MutexLock lock(&mu_);
    for (; !pending_.empty(); pending_.pop()) reclaimed.push_back(pending_.top());
    metrics_->gauge(kObsJobsQueued).set(0);
  }
  for (const JobHandlePtr& handle : reclaimed) {
    metrics_->counter(kObsJobsCancelled).inc();
    handle->finish({.state = JobState::kCancelled});
  }
}

void JobScheduler::run_one() {
  JobHandlePtr handle;
  {
    MutexLock lock(&mu_);
    if (pending_.empty()) return;  // its job was reclaimed by shutdown()
    handle = pending_.top();
    pending_.pop();
    metrics_->gauge(kObsJobsQueued).set(static_cast<std::int64_t>(pending_.size()));
  }

  bool cancelled_in_queue = handle->cancel_token_.cancelled();
  {
    MutexLock hlock(&handle->mu_);
    handle->queue_seconds_ = handle->queue_timer_.seconds();
    if (!cancelled_in_queue) handle->state_ = JobState::kRunning;
  }
  Tracer& tracer = Tracer::Global();
  if (handle->trace_id_ != 0 && handle->submit_ts_us_ != 0 &&
      tracer.enabled()) {
    // Queue-wait spans start on the submitter and end on the worker.
    tracer.record_span(kObsSvcQueueWait, handle->trace_id_,
                       handle->submit_ts_us_, tracer.now_us(),
                       TraceLane(handle->trace_id_));
    if (cancelled_in_queue) {
      tracer.record(TraceEvent{kObsSvcJobCancelled, 'i', handle->trace_id_,
                               tracer.now_us(), 0, 0, 0});
    }
  }
  if (cancelled_in_queue) {
    metrics_->counter(kObsJobsCancelled).inc();
    handle->finish({.state = JobState::kCancelled});
    return;
  }
  metrics_->histogram(kObsJobsQueueSeconds).record(handle->queue_seconds());
  metrics_->gauge(kObsJobsRunning).add(1);
  execute(handle);
}

void JobScheduler::execute(const JobHandlePtr& handle) {
  // The time limit starts now, so queue time does not count against it.
  handle->cancel_token_.expire_after(handle->job_.time_limit_seconds);
  ProfileOptions options = handle->job_.options;
  // Intra-job parallelism: this job's discovery shards fan out over the
  // same pool that runs the jobs. Degree is clamped to the pool size; the
  // slot accounting lives in ThreadPool::run_shards, which enlists only
  // idle workers — an N-way job on a busy pool degrades toward sequential
  // instead of oversubscribing.
  options.worker_pool = &pool_;
  options.parallelism =
      std::max(1, std::min(options.parallelism, pool_.num_threads()));
  std::function<void(ProfileStage, double)> user_hook = options.stage_hook;
  options.stage_hook = [this, &user_hook](ProfileStage stage, double seconds) {
    metrics_
        ->histogram(std::string("stage.") + ProfileStageName(stage) +
                    "_seconds")
        .record(seconds);
    if (user_hook) user_hook(stage, seconds);
  };

  Timer run_timer;
  JobHandle::Outcome outcome;
  {
    // The worker runs under the job's trace id, with a per-job sink feeding
    // algorithm counters into the metrics registry and the trace, and a cost
    // scope on top classifying the same counters into this job's ledger.
    // Every stage polls this job's token, which fires on cancel() or once
    // the time limit passes.
    TraceIdScope trace_scope(handle->trace_id_);
    TelemetrySink sink(metrics_, handle->trace_id_);
    ObsScope obs_scope(&sink);
    CostLedgerScope cost_scope(&outcome.cost);
    TraceSpan run_span(kObsSvcJobRun);
    CancelScope scope(&handle->cancel_token_);
    try {
      std::shared_ptr<const Relation> relation =
          datasets_->get(handle->job_.dataset, options.semantics);
      outcome.report = Profiler(options).profile(*relation);
      // A report the token did not stop is complete, even if the token
      // fired after the last poll.
      outcome.state = JobState::kDone;
      if (outcome.report->cancelled) {
        outcome.state =
            handle->cancel_token_.reason() == CancelToken::Reason::kExpired
                ? JobState::kDeadlineExpired
                : JobState::kCancelled;
      }
    } catch (const std::invalid_argument& e) {
      outcome.error = e.what();
      outcome.invalid_request = true;
    } catch (const std::exception& e) {
      outcome.error = e.what();
    } catch (...) {
      outcome.error = "unknown exception";
    }
  }
  outcome.run_seconds = run_timer.seconds();

  Tracer& tracer = Tracer::Global();
  if (handle->trace_id_ != 0 && tracer.enabled() &&
      outcome.state == JobState::kCancelled) {
    tracer.record(TraceEvent{kObsSvcJobCancelled, 'i', handle->trace_id_,
                             tracer.now_us(), 0, 0, 0});
  }

  // Metrics are finalized before the handle turns terminal, so a thread
  // returning from wait()/wait_all() always sees consistent counts.
  metrics_->histogram(kObsJobsRunSeconds).record(outcome.run_seconds);
  switch (outcome.state) {
    case JobState::kDone:
      metrics_->counter(kObsJobsCompleted).inc();
      break;
    case JobState::kFailed:
      metrics_->counter(kObsJobsFailed).inc();
      break;
    case JobState::kCancelled:
      metrics_->counter(kObsJobsCancelled).inc();
      break;
    case JobState::kDeadlineExpired:
      metrics_->counter(kObsJobsDeadlineExpired).inc();
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      // Unreachable: the outcome of a job that just finished executing is
      // terminal.
      break;
  }
  metrics_->gauge(kObsJobsRunning).add(-1);
  handle->finish(std::move(outcome));
}

void JobScheduler::shutdown() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  // Drains every queued run_one ticket, then joins the workers; all
  // submitted jobs are terminal afterwards. Any job a lost ticket left
  // behind is reclaimed as cancelled so no handle waits forever.
  pool_.shutdown();
  reclaim_pending();
}

void JobScheduler::wait_all() const {
  std::vector<JobHandlePtr> jobs;
  {
    MutexLock lock(&mu_);
    jobs = unfinished_;
  }
  for (const JobHandlePtr& handle : jobs) handle->wait();
}

}  // namespace dhyfd
