#ifndef DHYFD_SERVICE_JOB_H_
#define DHYFD_SERVICE_JOB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/profiler.h"
#include "obs/cost_ledger.h"
#include "util/cancellation.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace dhyfd {

/// One profiling request: which registered dataset to profile and how.
struct ProfileJob {
  /// Name of a dataset previously registered in the DatasetRegistry.
  std::string dataset;
  ProfileOptions options;
  /// Higher-priority jobs run first; ties run in submission order.
  int priority = 0;
  /// Per-job cooperative time limit in seconds (0 = none). Overrides
  /// options.time_limit_seconds when positive.
  double time_limit_seconds = 0;
  /// Trace id to adopt for this job's span tree (0 = let the scheduler mint
  /// one when tracing is on). Set by the server from the client-stamped
  /// kTracedRequest context so client and server spans share one tree.
  std::uint64_t trace_id = 0;
};

/// Lifecycle of a submitted job.
enum class JobState {
  kQueued,     // accepted, waiting for a worker
  kRunning,    // a worker is executing the pipeline
  kDone,       // finished; report() is valid
  kFailed,     // threw; error() has the message
  kCancelled,  // cancel() won: either never started, or stopped early
};

const char* JobStateName(JobState state);

/// Shared state for one submitted job; returned by JobScheduler::submit().
/// All methods are thread-safe. Holding the handle after the scheduler is
/// destroyed is safe (shared ownership).
class JobHandle {
 public:
  std::uint64_t id() const { return id_; }
  const ProfileJob& job() const { return job_; }

  JobState state() const DHYFD_EXCLUDES(mu_);
  bool finished() const DHYFD_EXCLUDES(mu_);

  /// Requests cooperative cancellation. A queued job is dropped before it
  /// starts; a running job stops at its next deadline poll (inside the
  /// discovery loops or between pipeline stages).
  void cancel();

  /// Blocks until the job reaches a terminal state.
  void wait() const DHYFD_EXCLUDES(mu_);

  /// Runs `fn` once the job is terminal: on the thread that finishes it,
  /// after waiters are woken, or at once on the caller when the job already
  /// is terminal. One continuation per handle.
  void on_finish(std::function<void(const JobHandle&)> fn)
      DHYFD_EXCLUDES(mu_);

  /// The pipeline's output; valid for kDone, and for kCancelled jobs that
  /// were stopped mid-run (partial: stages after the cancellation point are
  /// empty). Throws std::runtime_error for kFailed, and for kCancelled jobs
  /// that never started. Blocks until terminal.
  const ProfileReport& report() const DHYFD_EXCLUDES(mu_);

  /// Error message for kFailed jobs ("" otherwise).
  std::string error() const DHYFD_EXCLUDES(mu_);

  /// True for a kFailed job whose pipeline threw std::invalid_argument (e.g.
  /// a query spec wider than the schema): a client error, not a server one.
  bool invalid_request() const DHYFD_EXCLUDES(mu_);

  /// True for jobs the scheduler refused at admission because its
  /// max_pending bound was full (always kFailed; see SchedulerOptions).
  /// Lets callers distinguish "retry later" from a genuine failure.
  bool rejected() const { return rejected_; }

  /// Seconds spent queued before a worker picked the job up, and executing.
  double queue_seconds() const DHYFD_EXCLUDES(mu_);
  double run_seconds() const DHYFD_EXCLUDES(mu_);

  /// Trace id grouping this job's spans/counters when tracing was enabled at
  /// submission (0 otherwise). Filter on args.trace_id in the exported trace
  /// to see one job's queue-wait, run, and discovery stages as one tree.
  std::uint64_t trace_id() const { return trace_id_; }

  /// Resource cost the worker accumulated while executing (zero-valued for
  /// jobs that never ran). Valid once the job is terminal.
  CostLedger cost() const DHYFD_EXCLUDES(mu_);

 private:
  friend class JobScheduler;

  JobHandle(std::uint64_t id, ProfileJob job)
      : id_(id), job_(std::move(job)) {}

  /// What a job ended with; `report` is set for runs that produced one.
  struct Outcome {
    JobState state = JobState::kFailed;
    std::optional<ProfileReport> report;
    std::string error;
    bool invalid_request = false;
    double run_seconds = 0;
    CostLedger cost;
  };

  /// The one terminal transition (refused, reclaimed, cancelled in the
  /// queue, executed): records `outcome`, wakes waiters, runs on_finish.
  void finish(Outcome outcome) DHYFD_EXCLUDES(mu_);

  /// True for kDone / kFailed / kCancelled.
  bool finished_locked() const DHYFD_REQUIRES(mu_);

  const std::uint64_t id_;
  const ProfileJob job_;
  CancelToken cancel_token_;
  Timer queue_timer_;  // started at submission
  // Set once by JobScheduler::submit() before the handle is shared; read-only
  // afterwards, so no lock is needed.
  std::uint64_t trace_id_ = 0;
  std::int64_t submit_ts_us_ = 0;
  bool rejected_ = false;

  mutable Mutex mu_;
  mutable CondVar done_cv_;
  JobState state_ DHYFD_GUARDED_BY(mu_) = JobState::kQueued;
  std::optional<ProfileReport> report_ DHYFD_GUARDED_BY(mu_);
  std::string error_ DHYFD_GUARDED_BY(mu_);
  bool invalid_request_ DHYFD_GUARDED_BY(mu_) = false;
  double queue_seconds_ DHYFD_GUARDED_BY(mu_) = 0;
  double run_seconds_ DHYFD_GUARDED_BY(mu_) = 0;
  CostLedger cost_ DHYFD_GUARDED_BY(mu_);
  std::function<void(const JobHandle&)> on_finish_ DHYFD_GUARDED_BY(mu_);
};

using JobHandlePtr = std::shared_ptr<JobHandle>;

}  // namespace dhyfd

#endif  // DHYFD_SERVICE_JOB_H_
