#ifndef DHYFD_OBS_TRACE_H_
#define DHYFD_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dhyfd {

/// One recorded event in the Chrome trace-event model. Only the phases the
/// stack emits are supported:
///
///   'X'  complete span: [ts_us, ts_us + dur_us)
///   'C'  counter sample: series `name` has cumulative `value` at ts_us
///   'i'  instant marker
///
/// `name` must be a string literal (or otherwise outlive the tracer): events
/// are recorded from hot paths, so they never copy the name.
struct TraceEvent {
  const char* name = nullptr;
  char phase = 'X';
  /// Groups every span/counter of one logical request (0 = none). Exported
  /// as args.trace_id so one job's tree is filterable in Perfetto.
  std::uint64_t trace_id = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;  // 'X' only
  std::int64_t value = 0;   // 'C' only
  std::uint32_t tid = 0;
};

/// Low-overhead span/counter recorder.
///
/// Design: each recording thread owns a chain of fixed-size event chunks.
/// Appends are lock-free — the writer fills a slot, then publishes it with a
/// release store of the chunk's `used` count; drain() walks every chain with
/// acquire loads and only reads published slots. The registry of per-thread
/// chains is the only mutex, taken once per (thread, tracer) on first use.
///
/// When disabled (the default), the instrumentation macros reduce to one
/// relaxed atomic load — cheap enough to leave compiled into release hot
/// paths. Chunks are retained until the tracer is destroyed; a tracing
/// session trades memory for a drain that cannot race recording threads.
class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer the instrumentation macros record into.
  static Tracer& Global();

  /// Starts recording. Timestamps are relative to the first start().
  void start();
  /// Stops recording; already-buffered events remain drainable.
  void stop();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds on the monotonic clock since the first start().
  std::int64_t now_us() const;

  /// Fresh id for one logical request's span tree (never returns 0).
  std::uint64_t next_trace_id() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends to the calling thread's buffer. No-op when disabled.
  void record(const TraceEvent& event);

  /// Convenience: record a completed span with explicit timestamps (used for
  /// queue-wait spans measured across threads).
  void record_span(const char* name, std::uint64_t trace_id,
                   std::int64_t start_us, std::int64_t end_us,
                   std::uint32_t tid_override = 0);

  /// Snapshot of every published event, across all threads, in recording
  /// order per thread. Safe to call while other threads record; events
  /// published after the snapshot began may be missed.
  std::vector<TraceEvent> drain() const DHYFD_EXCLUDES(mu_);

  /// Published events across all threads (cheap sum; for tests/telemetry).
  std::size_t event_count() const DHYFD_EXCLUDES(mu_);

 private:
  struct Chunk;
  struct ThreadBuffer;

  ThreadBuffer* buffer_for_this_thread() DHYFD_EXCLUDES(mu_);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_trace_id_{1};
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> epoch_set_{false};

  mutable Mutex mu_;  // guards buffers_ registration only
  // Registration is guarded; the buffers themselves are published via the
  // chunks' release/acquire protocol, not the mutex.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ DHYFD_GUARDED_BY(mu_);
};

/// Stable small integer id for the calling thread (1, 2, ...), used as the
/// Chrome trace `tid` so per-thread lanes are readable.
std::uint32_t CurrentTraceTid();

/// The trace id of the logical request the calling thread is working on
/// (0 when none). Propagated by ThreadPool/JobScheduler/LiveStore.
std::uint64_t CurrentTraceId();

/// Synthetic Chrome-trace lane for spans that start on one thread and end
/// on another (queue waits, server-side request envelopes). Drawn on a real
/// worker lane they would overlap that worker's previous task and render as
/// bogus nesting; one lane per trace id keeps a request on one visual row.
inline std::uint32_t TraceLane(std::uint64_t trace_id) {
  return 900000u + static_cast<std::uint32_t>(trace_id % 100000);
}

/// RAII: installs `id` as the calling thread's current trace id, restoring
/// the previous one on destruction.
class TraceIdScope {
 public:
  explicit TraceIdScope(std::uint64_t id);
  ~TraceIdScope();

  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// RAII span against the global tracer: records an 'X' event covering the
/// scope's lifetime, tagged with the current trace id. When the tracer is
/// disabled at construction, both ends are a single relaxed load.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (Tracer::Global().enabled()) begin(name);
  }
  ~TraceSpan() {
    if (active_) end();
  }

  /// Records the span now instead of at scope exit (idempotent).
  void finish() {
    if (active_) {
      end();
      active_ = false;
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void begin(const char* name);
  void end();

  const char* name_ = nullptr;
  std::int64_t start_us_ = 0;
  bool active_ = false;
};

}  // namespace dhyfd

#endif  // DHYFD_OBS_TRACE_H_
