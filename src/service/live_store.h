#ifndef DHYFD_SERVICE_LIVE_STORE_H_
#define DHYFD_SERVICE_LIVE_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "incr/live_profile.h"
#include "obs/cost_ledger.h"
#include "relation/csv.h"
#include "service/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace dhyfd {

/// Per-dataset configuration for LiveStore::create().
struct LiveDatasetOptions {
  LiveProfileOptions profile;
  NullSemantics semantics = NullSemantics::kNullEqualsNull;
};

/// One update request against a live dataset.
struct UpdateJob {
  std::string dataset;
  UpdateBatch batch;
  /// Trace id to adopt for this batch's span tree (0 = mint one when tracing
  /// is on). Set by the net server from the client-stamped trace context.
  std::uint64_t trace_id = 0;
};

enum class UpdateJobState { kQueued, kRunning, kDone, kFailed };

/// Shared state of one submitted update; all methods thread-safe.
class UpdateJobHandle {
 public:
  std::uint64_t id() const { return id_; }
  const std::string& dataset() const { return dataset_; }

  UpdateJobState state() const DHYFD_EXCLUDES(mu_);
  void wait() const DHYFD_EXCLUDES(mu_);

  /// As JobHandle::on_finish; runs before cover-change listeners hear of
  /// the batch.
  void on_finish(std::function<void(const UpdateJobHandle&)> fn)
      DHYFD_EXCLUDES(mu_);

  /// The batch's cover delta; throws std::runtime_error for kFailed.
  /// Blocks until terminal.
  const CoverDelta& delta() const DHYFD_EXCLUDES(mu_);
  /// Error message for kFailed jobs ("" otherwise).
  std::string error() const DHYFD_EXCLUDES(mu_);
  /// True for a kFailed job whose batch LiveProfile::apply refused as
  /// malformed (std::invalid_argument) — a client error, not a server one.
  bool invalid_batch() const DHYFD_EXCLUDES(mu_);

  /// Trace id grouping this batch's spans/counters when tracing was enabled
  /// at submission (0 otherwise).
  std::uint64_t trace_id() const { return trace_id_; }

  /// Resource cost the worker accumulated applying this batch (zero-valued
  /// until the job ran). Valid once the job is terminal.
  CostLedger cost() const DHYFD_EXCLUDES(mu_);

 private:
  friend class LiveStore;

  UpdateJobHandle(std::uint64_t id, std::string dataset, UpdateBatch batch)
      : id_(id), dataset_(std::move(dataset)), batch_(std::move(batch)) {}

  /// The one terminal transition (refused, applied, failed); `error` empty
  /// means kDone with `delta`. Wakes waiters, then runs on_finish.
  void finish(CoverDelta delta, std::string error, bool invalid_batch,
              CostLedger cost) DHYFD_EXCLUDES(mu_);

  /// True for kDone / kFailed.
  bool terminal_locked() const DHYFD_REQUIRES(mu_) {
    return state_ == UpdateJobState::kDone || state_ == UpdateJobState::kFailed;
  }

  const std::uint64_t id_;
  const std::string dataset_;
  UpdateBatch batch_;
  // Set once by LiveStore::submit() before the handle is shared; read-only
  // afterwards.
  std::uint64_t trace_id_ = 0;
  std::int64_t submit_ts_us_ = 0;

  mutable Mutex mu_;
  mutable CondVar done_cv_;
  UpdateJobState state_ DHYFD_GUARDED_BY(mu_) = UpdateJobState::kQueued;
  CoverDelta delta_ DHYFD_GUARDED_BY(mu_);
  std::string error_ DHYFD_GUARDED_BY(mu_);
  bool invalid_batch_ DHYFD_GUARDED_BY(mu_) = false;
  CostLedger cost_ DHYFD_GUARDED_BY(mu_);
  std::function<void(const UpdateJobHandle&)> on_finish_ DHYFD_GUARDED_BY(mu_);
};

using UpdateJobHandlePtr = std::shared_ptr<UpdateJobHandle>;

/// What one applied batch changed; delivered to subscribers after the cover
/// is updated (outside the dataset's profile lock, in batch order).
struct CoverChangeEvent {
  std::string dataset;
  std::uint64_t batch_id = 0;
  FdSet added;
  FdSet removed;
  BatchStats stats;
  /// Trace id of the update batch that produced this delta (0 = untraced),
  /// so streamed events stay attributable to the request that caused them.
  std::uint64_t trace_id = 0;
};

using CoverChangeListener = std::function<void(const CoverChangeEvent&)>;

/// Hosts named LiveProfiles and applies update batches to them on a shared
/// thread pool. Batches for one dataset form a strand: they run strictly in
/// submission order, one at a time, while different datasets update in
/// parallel. Reads (cover / ranking / stats) take a per-dataset lock and
/// return copies, so they never observe a half-applied batch.
///
/// Metrics: counters incr.batches, incr.rows_inserted, incr.rows_deleted,
/// incr.fds_added, incr.fds_removed, incr.rebuilds, incr.jobs_failed;
/// gauges incr.datasets, incr.jobs_queued; histogram incr.batch_seconds.
class LiveStore {
 public:
  /// `metrics` is not owned and must outlive the store.
  explicit LiveStore(MetricsRegistry* metrics, int num_threads = 0);

  /// Equivalent to shutdown().
  ~LiveStore();

  LiveStore(const LiveStore&) = delete;
  LiveStore& operator=(const LiveStore&) = delete;

  /// Registers a dataset and runs initial discovery synchronously. Returns a
  /// copy of the initial codes, taken before any batch, under
  /// options.semantics. Throws std::invalid_argument if the name is taken.
  std::shared_ptr<const Relation> create(const std::string& name,
                                         const RawTable& initial,
                                         LiveDatasetOptions options = {})
      DHYFD_EXCLUDES(mu_);

  bool contains(const std::string& name) const DHYFD_EXCLUDES(mu_);
  std::vector<std::string> names() const DHYFD_EXCLUDES(mu_);

  /// Enqueues a batch; returns its handle immediately (kFailed handle if the
  /// dataset is unknown or the store is shut down — never nullptr).
  UpdateJobHandlePtr submit(UpdateJob job) DHYFD_EXCLUDES(mu_);

  /// Synchronous convenience: submit + wait + return the delta (throws on
  /// failure).
  CoverDelta apply(const std::string& name, UpdateBatch batch);

  /// Copies of the current cover / ranking / live row count; throw
  /// std::invalid_argument for unknown datasets.
  FdSet cover(const std::string& name) const DHYFD_EXCLUDES(mu_);
  std::vector<FdRedundancy> ranking(const std::string& name) const
      DHYFD_EXCLUDES(mu_);
  RowId live_rows(const std::string& name) const DHYFD_EXCLUDES(mu_);

  /// Registers a listener for every dataset's cover changes; returns a
  /// token for unsubscribe(). Listeners run on worker threads, after the
  /// batch commits, in per-dataset batch order; they must not call back
  /// into the store's blocking operations.
  std::uint64_t subscribe(CoverChangeListener listener) DHYFD_EXCLUDES(mu_);
  void unsubscribe(std::uint64_t token) DHYFD_EXCLUDES(mu_);

  /// Stops accepting work, drains queued batches, joins the workers.
  /// Idempotent.
  void shutdown() DHYFD_EXCLUDES(mu_);

  /// Blocks until every batch submitted so far is terminal.
  void wait_all() const DHYFD_EXCLUDES(mu_);

 private:
  struct Entry {
    Mutex mu;  // guards queue + draining flag
    std::deque<UpdateJobHandlePtr> queue DHYFD_GUARDED_BY(mu);
    bool draining DHYFD_GUARDED_BY(mu) = false;  // a worker owns this strand
    mutable Mutex profile_mu;  // guards the LiveProfile itself
    // The pointer is set once by create() before the entry is published;
    // the pointee is what profile_mu protects.
    std::unique_ptr<LiveProfile> profile DHYFD_PT_GUARDED_BY(profile_mu);
  };

  /// Worker task: drains `entry`'s queue until empty (strand execution).
  void drain(const std::shared_ptr<Entry>& entry) DHYFD_EXCLUDES(mu_);
  void run_job(const std::shared_ptr<Entry>& entry, const UpdateJobHandlePtr& h)
      DHYFD_EXCLUDES(mu_);
  std::shared_ptr<Entry> find(const std::string& name) const
      DHYFD_EXCLUDES(mu_);
  static UpdateJobHandlePtr failed_handle(std::uint64_t id, UpdateJob job,
                                          std::string error);
  void notify(const CoverChangeEvent& event) DHYFD_EXCLUDES(mu_);

  MetricsRegistry* metrics_;
  ThreadPool pool_;

  mutable Mutex mu_;
  mutable CondVar idle_cv_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> datasets_
      DHYFD_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, CoverChangeListener> listeners_
      DHYFD_GUARDED_BY(mu_);
  std::uint64_t next_job_id_ DHYFD_GUARDED_BY(mu_) = 1;
  std::uint64_t next_listener_id_ DHYFD_GUARDED_BY(mu_) = 1;
  std::int64_t unfinished_jobs_ DHYFD_GUARDED_BY(mu_) = 0;
  bool shutdown_ DHYFD_GUARDED_BY(mu_) = false;
};

}  // namespace dhyfd

#endif  // DHYFD_SERVICE_LIVE_STORE_H_
