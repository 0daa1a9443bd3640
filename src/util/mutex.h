#ifndef DHYFD_UTIL_MUTEX_H_
#define DHYFD_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace dhyfd {

/// Annotated wrapper over std::mutex — the only mutex type the repo uses
/// (tools/analyze/analyze.py `naked-mutex` rejects naked std::mutex outside
/// this file).
/// Under Clang with -DDHYFD_THREAD_SAFETY=ON, mismatched lock/unlock and
/// unguarded access to DHYFD_GUARDED_BY members are compile errors.
class DHYFD_LOCKABLE Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DHYFD_ACQUIRE() { mu_.lock(); }
  void unlock() DHYFD_RELEASE() { mu_.unlock(); }
  bool try_lock() DHYFD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII scoped lock over Mutex; also the handle CondVar waits on. There is
/// deliberately no unlock()/relock() — a critical section is one scope, so
/// the analysis (and the reader) never has to track a toggled lock state.
class DHYFD_SCOPED_LOCKABLE MutexLock {
 public:
  explicit MutexLock(Mutex* mu) DHYFD_ACQUIRE(mu) : lock_(mu->mu_) {}
  // Empty body (not `= default`) so the release annotation parses on every
  // compiler; lock_'s destructor does the actual unlock.
  ~MutexLock() DHYFD_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to MutexLock.
///
/// There are intentionally no predicate overloads: a predicate lambda is
/// analyzed as a separate function by Clang TSA, so its guarded reads could
/// not be proven. Callers write the standard loop instead, keeping every
/// guarded read inside the locked scope:
///
///   MutexLock lock(&mu_);
///   while (!ready_) cv_.wait(lock);
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases the lock and blocks; the lock is re-held on
  /// return. Spurious wakeups happen — always wait in a predicate loop.
  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// wait() with a deadline; std::cv_status::timeout once it passes.
  std::cv_status wait_until(MutexLock& lock,
                            std::chrono::steady_clock::time_point deadline) {
    return cv_.wait_until(lock.lock_, deadline);
  }

  /// wait() with a relative timeout in seconds.
  std::cv_status wait_for(MutexLock& lock, double seconds) {
    return cv_.wait_for(lock.lock_, std::chrono::duration<double>(seconds));
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace dhyfd

#endif  // DHYFD_UTIL_MUTEX_H_
