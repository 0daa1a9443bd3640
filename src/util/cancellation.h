#ifndef DHYFD_UTIL_CANCELLATION_H_
#define DHYFD_UTIL_CANCELLATION_H_

#include <atomic>
#include <memory>

namespace dhyfd {

/// A shared, sticky cancellation flag. One side (e.g. a JobHandle) calls
/// cancel(); the other side (a discovery run) polls cancelled() at loop
/// boundaries and abandons the run, exactly like a fired Deadline.
class CancelToken {
 public:
  void cancel() { flag_.store(true, std::memory_order_release); }
  bool cancelled() const { return flag_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> flag_{false};
};

using CancelTokenPtr = std::shared_ptr<CancelToken>;

/// Binds a token as the calling thread's current cancellation context for
/// the lifetime of the scope. Every Deadline constructed on this thread
/// while the scope is alive observes the token, so the existing expired()
/// polls inside the discovery algorithms double as cancellation polls —
/// no per-algorithm plumbing required. Scopes nest; the previous binding
/// is restored on destruction.
class CancelScope {
 public:
  explicit CancelScope(const CancelToken* token) : prev_(current_) {
    current_ = token;
  }
  ~CancelScope() { current_ = prev_; }

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

  /// The token bound to this thread, or nullptr outside any scope.
  static const CancelToken* Current() { return current_; }

  /// True if the token bound to this thread has fired. Long loops outside
  /// discovery (canonical cover, ranking) poll this every
  /// kCancelPollInterval iterations.
  static bool CurrentCancelled() {
    return current_ != nullptr && current_->cancelled();
  }

 private:
  static thread_local const CancelToken* current_;
  const CancelToken* prev_;
};

inline thread_local const CancelToken* CancelScope::current_ = nullptr;

/// Iterations between CancelScope::CurrentCancelled() polls in loops whose
/// bodies are too cheap to poll every time.
inline constexpr int kCancelPollInterval = 256;

}  // namespace dhyfd

#endif  // DHYFD_UTIL_CANCELLATION_H_
