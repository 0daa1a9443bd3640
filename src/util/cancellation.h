#ifndef DHYFD_UTIL_CANCELLATION_H_
#define DHYFD_UTIL_CANCELLATION_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace dhyfd {

/// The one stop signal of a run: a sticky flag that fires on cancel() or,
/// if an expiry is armed, once the steady clock passes it (the paper's
/// "TL" budget, the service's per-job deadline). Every stage polls it
/// through CancelScope and abandons the run. Thread-safe; it records which
/// signal fired first.
class CancelToken {
 public:
  enum class Reason : std::uint8_t { kNone, kCancelled, kExpired };

  CancelToken() = default;
  /// A token that expires `seconds` from now; seconds <= 0 arms none.
  explicit CancelToken(double seconds) { expire_after(seconds); }

  void cancel() { fire(Reason::kCancelled); }

  /// Arms the expiry `seconds` from now, replacing any earlier one;
  /// seconds <= 0 (or NaN) disarms it. A token that already fired stays
  /// fired.
  void expire_after(double seconds) {
    Clock::rep end = kNoExpiry;
    if (seconds > 0) {
      // Capped at ~30 years so the conversion cannot overflow.
      const auto budget = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(std::min(seconds, 1e9)));
      end = (Clock::now() + budget).time_since_epoch().count();
    }
    expiry_.store(end);
  }

  /// True once cancel() was called or the expiry passed. One atomic load,
  /// plus a ~20 ns steady-clock read while an expiry is armed and unfired.
  bool cancelled() const {
    if (reason_.load() != Reason::kNone) return true;
    const Clock::rep end = expiry_.load();
    if (end == kNoExpiry || Clock::now().time_since_epoch().count() < end) {
      return false;
    }
    fire(Reason::kExpired);
    return true;
  }

  /// Which signal fired first, or kNone while neither has.
  Reason reason() const {
    return cancelled() ? reason_.load() : Reason::kNone;
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr Clock::rep kNoExpiry = std::numeric_limits<Clock::rep>::max();

  /// The first signal wins; later ones leave the reason alone.
  void fire(Reason why) const {
    Reason none = Reason::kNone;
    reason_.compare_exchange_strong(none, why);
  }

  mutable std::atomic<Reason> reason_{Reason::kNone};
  std::atomic<Clock::rep> expiry_{kNoExpiry};
};

/// Binds a token as the calling thread's stop signal for the scope's
/// lifetime, so every poll below it, in any layer, is CurrentCancelled().
/// ThreadPool::run_shards binds it on its helper threads too. Scopes nest.
/// A library caller bounds a run with
///   CancelToken tl(seconds);
///   CancelScope scope(&tl);
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

  /// True if the token bound to this thread has fired (cancel or expiry).
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
