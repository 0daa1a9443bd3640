#include "obs/snapshot_writer.h"

#include <algorithm>
#include <chrono>

#include "obs/prometheus.h"

namespace dhyfd {

SnapshotWriter::SnapshotWriter(MetricsRegistry* metrics, std::string path,
                               double interval_seconds)
    : metrics_(metrics),
      path_(std::move(path)),
      interval_seconds_(std::max(interval_seconds, 0.01)) {
  // A periodic background writer, not pool work: it sleeps most of its
  // life and must survive pool saturation.  // analyze-allow: naked-thread
  thread_ = std::thread([this] { loop(); });  // analyze-allow: naked-thread
}

SnapshotWriter::~SnapshotWriter() { stop(); }

void SnapshotWriter::stop() {
  {
    MutexLock lock(&mu_);
    if (joined_) return;
    stopping_ = true;
    joined_ = true;
    wake_.notify_all();
  }
  thread_.join();
}

std::int64_t SnapshotWriter::snapshots_written() const {
  MutexLock lock(&mu_);
  return snapshots_written_;
}

void SnapshotWriter::loop() {
  for (;;) {
    bool stop_requested;
    {
      MutexLock lock(&mu_);
      auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(interval_seconds_));
      while (!stopping_) {
        if (wake_.wait_until(lock, deadline) == std::cv_status::timeout) break;
      }
      stop_requested = stopping_;
    }
    if (stop_requested) break;
    write_once();  // file I/O runs outside the lock
  }
  write_once();  // final snapshot on the way out
}

void SnapshotWriter::write_once() {
  if (WritePrometheusFile(*metrics_, path_)) {
    MutexLock lock(&mu_);
    ++snapshots_written_;
  }
}

}  // namespace dhyfd
