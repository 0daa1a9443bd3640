#ifndef DHYFD_OBS_SNAPSHOT_WRITER_H_
#define DHYFD_OBS_SNAPSHOT_WRITER_H_

#include <cstdint>
#include <string>
#include <thread>

#include "service/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dhyfd {

/// Periodically writes the registry's Prometheus text exposition to a file
/// (overwriting in place), so an external scraper — or a human with `watch
/// cat` — can follow a long run. stop() (and the destructor) writes one
/// final snapshot, so short runs still leave a complete file behind.
class SnapshotWriter {
 public:
  /// `metrics` is not owned and must outlive the writer. Starts the
  /// background thread immediately; intervals below 10 ms are clamped up.
  SnapshotWriter(MetricsRegistry* metrics, std::string path,
                 double interval_seconds = 5.0);
  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Joins the background thread after a final write. Idempotent.
  void stop() DHYFD_EXCLUDES(mu_);

  std::int64_t snapshots_written() const DHYFD_EXCLUDES(mu_);

 private:
  void loop() DHYFD_EXCLUDES(mu_);
  void write_once() DHYFD_EXCLUDES(mu_);

  MetricsRegistry* metrics_;
  const std::string path_;
  const double interval_seconds_;

  mutable Mutex mu_;
  CondVar wake_;
  bool stopping_ DHYFD_GUARDED_BY(mu_) = false;
  bool joined_ DHYFD_GUARDED_BY(mu_) = false;
  std::int64_t snapshots_written_ DHYFD_GUARDED_BY(mu_) = 0;
  std::thread thread_;  // analyze-allow: naked-thread (periodic writer)
};

}  // namespace dhyfd

#endif  // DHYFD_OBS_SNAPSHOT_WRITER_H_
