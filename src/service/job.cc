#include "service/job.h"

#include <stdexcept>
#include <utility>

namespace dhyfd {

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

bool JobHandle::finished_locked() const {
  return state_ == JobState::kDone || state_ == JobState::kFailed ||
         state_ == JobState::kCancelled;
}

JobState JobHandle::state() const {
  MutexLock lock(&mu_);
  return state_;
}

bool JobHandle::finished() const {
  MutexLock lock(&mu_);
  return finished_locked();
}

void JobHandle::cancel() { cancel_token_.cancel(); }

void JobHandle::wait() const {
  MutexLock lock(&mu_);
  while (!finished_locked()) done_cv_.wait(lock);
}

void JobHandle::on_finish(std::function<void(const JobHandle&)> fn) {
  {
    MutexLock lock(&mu_);
    if (!finished_locked()) {
      on_finish_ = std::move(fn);
      return;
    }
  }
  fn(*this);
}

void JobHandle::finish(Outcome outcome) {
  std::function<void(const JobHandle&)> then;
  {
    MutexLock lock(&mu_);
    state_ = outcome.state;
    report_ = std::move(outcome.report);
    error_ = std::move(outcome.error);
    invalid_request_ = outcome.invalid_request;
    run_seconds_ = outcome.run_seconds;
    cost_ = outcome.cost;
    then = std::exchange(on_finish_, nullptr);
  }
  done_cv_.notify_all();
  if (then) then(*this);
}

const ProfileReport& JobHandle::report() const {
  MutexLock lock(&mu_);
  while (!finished_locked()) done_cv_.wait(lock);
  // Terminal state is sticky and report_ is never written again, so the
  // reference stays valid after the lock is dropped.
  if (report_.has_value()) return *report_;
  if (state_ == JobState::kFailed) {
    throw std::runtime_error("profile job failed: " + error_);
  }
  throw std::runtime_error("profile job cancelled before it started");
}

std::string JobHandle::error() const {
  MutexLock lock(&mu_);
  return error_;
}

bool JobHandle::invalid_request() const {
  MutexLock lock(&mu_);
  return invalid_request_;
}

double JobHandle::queue_seconds() const {
  MutexLock lock(&mu_);
  return queue_seconds_;
}

double JobHandle::run_seconds() const {
  MutexLock lock(&mu_);
  return run_seconds_;
}

CostLedger JobHandle::cost() const {
  MutexLock lock(&mu_);
  return cost_;
}

}  // namespace dhyfd
