#include "service/live_store.h"

#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace dhyfd {

// ---------------------------------------------------------------- handle

UpdateJobState UpdateJobHandle::state() const {
  MutexLock lock(&mu_);
  return state_;
}

void UpdateJobHandle::wait() const {
  MutexLock lock(&mu_);
  while (!terminal_locked()) done_cv_.wait(lock);
}

void UpdateJobHandle::on_finish(std::function<void(const UpdateJobHandle&)> fn) {
  {
    MutexLock lock(&mu_);
    if (!terminal_locked()) {
      on_finish_ = std::move(fn);
      return;
    }
  }
  fn(*this);
}

void UpdateJobHandle::finish(CoverDelta delta, std::string error,
                             bool invalid_batch, CostLedger cost) {
  std::function<void(const UpdateJobHandle&)> then;
  {
    MutexLock lock(&mu_);
    state_ = error.empty() ? UpdateJobState::kDone : UpdateJobState::kFailed;
    delta_ = std::move(delta);
    error_ = std::move(error);
    invalid_batch_ = invalid_batch;
    cost_ = cost;
    then = std::exchange(on_finish_, nullptr);
  }
  done_cv_.notify_all();
  if (then) then(*this);
}

const CoverDelta& UpdateJobHandle::delta() const {
  MutexLock lock(&mu_);
  while (!terminal_locked()) done_cv_.wait(lock);
  if (state_ == UpdateJobState::kFailed) {
    throw std::runtime_error("update job failed: " + error_);
  }
  // Terminal state is sticky and delta_ is never written again, so the
  // reference stays valid after the lock is dropped.
  return delta_;
}

std::string UpdateJobHandle::error() const {
  MutexLock lock(&mu_);
  return error_;
}

bool UpdateJobHandle::invalid_batch() const {
  MutexLock lock(&mu_);
  return invalid_batch_;
}

CostLedger UpdateJobHandle::cost() const {
  MutexLock lock(&mu_);
  return cost_;
}

// ----------------------------------------------------------------- store

LiveStore::LiveStore(MetricsRegistry* metrics, int num_threads)
    : metrics_(metrics),
      pool_(num_threads > 0
                ? num_threads
                : static_cast<int>(std::thread::hardware_concurrency())) {}

LiveStore::~LiveStore() { shutdown(); }

std::shared_ptr<const Relation> LiveStore::create(
    const std::string& name, const RawTable& initial,
    LiveDatasetOptions options) {
  auto entry = std::make_shared<Entry>();
  // Initial discovery runs synchronously, outside any lock; create() is the
  // caller's setup phase, not the hot path.
  entry->profile = std::make_unique<LiveProfile>(initial, options.profile,
                                                 options.semantics);
  // Copied before the entry is published, so no batch has touched it yet.
  std::shared_ptr<const Relation> codes;
  {
    MutexLock lock(&entry->profile_mu);
    codes = std::make_shared<const Relation>(
        entry->profile->live_relation().relation());
  }
  {
    MutexLock lock(&mu_);
    if (shutdown_) throw std::runtime_error("LiveStore is shut down");
    if (!datasets_.emplace(name, std::move(entry)).second) {
      throw std::invalid_argument("live dataset already exists: " + name);
    }
  }
  metrics_->gauge(kObsIncrDatasets).add(1);
  return codes;
}

bool LiveStore::contains(const std::string& name) const {
  MutexLock lock(&mu_);
  return datasets_.count(name) != 0;
}

std::vector<std::string> LiveStore::names() const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  out.reserve(datasets_.size());
  for (const auto& [name, entry] : datasets_) out.push_back(name);
  return out;
}

std::shared_ptr<LiveStore::Entry> LiveStore::find(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : it->second;
}

UpdateJobHandlePtr LiveStore::failed_handle(std::uint64_t id, UpdateJob job,
                                            std::string error) {
  UpdateJobHandlePtr h(new UpdateJobHandle(id, std::move(job.dataset),
                                           std::move(job.batch)));
  h->finish({}, std::move(error), /*invalid_batch=*/false, {});
  return h;
}

UpdateJobHandlePtr LiveStore::submit(UpdateJob job) {
  std::uint64_t id;
  {
    MutexLock lock(&mu_);
    id = next_job_id_++;
    if (shutdown_) {
      metrics_->counter(kObsIncrJobsFailed).inc();
      return failed_handle(id, std::move(job), "LiveStore is shut down");
    }
  }
  std::shared_ptr<Entry> entry = find(job.dataset);
  if (!entry) {
    metrics_->counter(kObsIncrJobsFailed).inc();
    std::string error = "unknown live dataset: " + job.dataset;
    return failed_handle(id, std::move(job), std::move(error));
  }

  UpdateJobHandlePtr h(new UpdateJobHandle(id, std::move(job.dataset),
                                           std::move(job.batch)));
  Tracer& tracer = Tracer::Global();
  if (job.trace_id != 0) {
    // Adopt the caller's (e.g. a client-stamped request's) trace id so this
    // batch's spans join that tree instead of starting a fresh one.
    h->trace_id_ = job.trace_id;
    if (tracer.enabled()) h->submit_ts_us_ = tracer.now_us();
  } else if (tracer.enabled()) {
    h->trace_id_ = tracer.next_trace_id();
    h->submit_ts_us_ = tracer.now_us();
  }
  {
    MutexLock lock(&mu_);
    ++unfinished_jobs_;
  }
  metrics_->gauge(kObsIncrJobsQueued).add(1);

  bool claim;
  {
    MutexLock lock(&entry->mu);
    entry->queue.push_back(h);
    // One worker per dataset at a time: only the submitter that flips
    // `draining` schedules a drain task; everyone else just enqueues.
    claim = !entry->draining;
    if (claim) entry->draining = true;
  }
  if (claim && !pool_.submit([this, entry] { drain(entry); })) {
    // Pool refused (shutdown raced us); run inline so the handle terminates.
    drain(entry);
  }
  return h;
}

void LiveStore::drain(const std::shared_ptr<Entry>& entry) {
  for (;;) {
    UpdateJobHandlePtr h;
    {
      MutexLock lock(&entry->mu);
      if (entry->queue.empty()) {
        entry->draining = false;
        return;
      }
      h = std::move(entry->queue.front());
      entry->queue.pop_front();
    }
    run_job(entry, h);
  }
}

void LiveStore::run_job(const std::shared_ptr<Entry>& entry,
                        const UpdateJobHandlePtr& h) {
  {
    MutexLock lock(&h->mu_);
    h->state_ = UpdateJobState::kRunning;
  }
  metrics_->gauge(kObsIncrJobsQueued).add(-1);

  Tracer& tracer = Tracer::Global();
  if (h->trace_id_ != 0 && h->submit_ts_us_ != 0 && tracer.enabled()) {
    tracer.record_span(kObsIncrQueueWait, h->trace_id_, h->submit_ts_us_,
                       tracer.now_us(), TraceLane(h->trace_id_));
  }

  CoverDelta delta;
  std::string error;
  bool invalid_batch = false;
  CostLedger cost;
  {
    // The strand worker runs under the batch's trace id with a per-batch
    // sink, so incr.* counters and spans group under this update's tree;
    // the cost scope classifies the same counters into the batch's ledger.
    TraceIdScope trace_scope(h->trace_id_);
    TelemetrySink sink(metrics_, h->trace_id_);
    ObsScope obs_scope(&sink);
    CostLedgerScope cost_scope(&cost);
    TraceSpan batch_span(kObsIncrBatch);
    MutexLock lock(&entry->profile_mu);
    try {
      delta = entry->profile->apply(h->batch_);
    } catch (const std::exception& e) {
      error = e.what();
      invalid_batch = dynamic_cast<const std::invalid_argument*>(&e) != nullptr;
    }
  }

  if (error.empty()) {
    const BatchStats& s = delta.stats;
    metrics_->counter(kObsIncrBatches).inc();
    metrics_->counter(kObsIncrRowsInserted).inc(s.rows_inserted);
    metrics_->counter(kObsIncrRowsDeleted).inc(s.rows_deleted);
    metrics_->counter(kObsIncrFdsAdded).inc(s.fds_added);
    metrics_->counter(kObsIncrFdsRemoved).inc(s.fds_removed);
    if (s.rebuilt) metrics_->counter(kObsIncrRebuilds).inc();
    metrics_->histogram(kObsIncrBatchSeconds).record(s.seconds);

    CoverChangeEvent event;
    event.dataset = h->dataset_;
    event.batch_id = h->id();
    event.added = delta.added;
    event.removed = delta.removed;
    event.stats = delta.stats;
    event.trace_id = h->trace_id_;

    h->finish(std::move(delta), {}, /*invalid_batch=*/false, cost);
    // Listeners fire after the handle commits but still on the strand, so
    // one dataset's events arrive in batch order.
    notify(event);
  } else {
    metrics_->counter(kObsIncrJobsFailed).inc();
    h->finish({}, std::move(error), invalid_batch, cost);
  }

  {
    MutexLock lock(&mu_);
    --unfinished_jobs_;
  }
  idle_cv_.notify_all();
}

void LiveStore::notify(const CoverChangeEvent& event) {
  std::vector<CoverChangeListener> listeners;
  {
    MutexLock lock(&mu_);
    listeners.reserve(listeners_.size());
    for (const auto& [token, fn] : listeners_) listeners.push_back(fn);
  }
  for (const auto& fn : listeners) fn(event);
}

CoverDelta LiveStore::apply(const std::string& name, UpdateBatch batch) {
  UpdateJobHandlePtr h = submit({name, std::move(batch)});
  return h->delta();  // throws on failure
}

FdSet LiveStore::cover(const std::string& name) const {
  std::shared_ptr<Entry> entry = find(name);
  if (!entry) throw std::invalid_argument("unknown live dataset: " + name);
  MutexLock lock(&entry->profile_mu);
  return entry->profile->cover();
}

std::vector<FdRedundancy> LiveStore::ranking(const std::string& name) const {
  std::shared_ptr<Entry> entry = find(name);
  if (!entry) throw std::invalid_argument("unknown live dataset: " + name);
  MutexLock lock(&entry->profile_mu);
  return entry->profile->ranking();
}

RowId LiveStore::live_rows(const std::string& name) const {
  std::shared_ptr<Entry> entry = find(name);
  if (!entry) throw std::invalid_argument("unknown live dataset: " + name);
  MutexLock lock(&entry->profile_mu);
  return entry->profile->live_relation().live_rows();
}

std::uint64_t LiveStore::subscribe(CoverChangeListener listener) {
  MutexLock lock(&mu_);
  std::uint64_t token = next_listener_id_++;
  listeners_.emplace(token, std::move(listener));
  return token;
}

void LiveStore::unsubscribe(std::uint64_t token) {
  MutexLock lock(&mu_);
  listeners_.erase(token);
}

void LiveStore::shutdown() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  // The pool drains queued strand tasks before joining, so every already-
  // submitted batch reaches a terminal state.
  pool_.shutdown();
}

void LiveStore::wait_all() const {
  MutexLock lock(&mu_);
  while (unfinished_jobs_ != 0) idle_cv_.wait(lock);
}

}  // namespace dhyfd
