#ifndef DHYFD_SERVICE_DATASET_REGISTRY_H_
#define DHYFD_SERVICE_DATASET_REGISTRY_H_

#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "relation/csv.h"
#include "relation/encoder.h"
#include "service/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dhyfd {

/// Caches DIIS-encoded relations by (dataset name, null semantics) so that
/// repeated profiling jobs against the same table skip re-reading and
/// re-encoding the CSV — the EAIFD view of profiling as repeated jobs over
/// (mostly) stable datasets rather than one-shot batches.
///
/// Thread safety: all methods may be called concurrently. When several jobs
/// request the same not-yet-encoded entry at once, exactly one thread
/// encodes while the others block on a shared future — encoding work is
/// never duplicated.
class DatasetRegistry {
 public:
  /// `metrics` is optional; when set, the registry reports
  /// dataset.cache_hits / dataset.cache_misses counters and a
  /// dataset.encode_seconds histogram into it. Not owned.
  explicit DatasetRegistry(MetricsRegistry* metrics = nullptr)
      : metrics_(metrics) {}

  /// Registers an in-memory raw table under `name` (replacing any previous
  /// registration and dropping its cached encodings). A table too wide for
  /// an AttributeSet throws std::invalid_argument and registers nothing.
  void add_table(const std::string& name, RawTable table) DHYFD_EXCLUDES(mu_);

  /// Registers a CSV file; it is read lazily on the first get().
  void add_csv_file(const std::string& name, const std::string& path,
                    CsvOptions options = {}) DHYFD_EXCLUDES(mu_);

  /// The encoded relation for `name` under `semantics`, encoding on first
  /// use. Throws std::out_of_range for unknown names; file-read or encode
  /// errors propagate to every waiting caller and are retried on the next
  /// get(). The returned pointer stays valid after erase()/clear().
  std::shared_ptr<const Relation> get(const std::string& name,
                                      NullSemantics semantics)
      DHYFD_EXCLUDES(mu_);

  bool contains(const std::string& name) const DHYFD_EXCLUDES(mu_);
  std::vector<std::string> names() const DHYFD_EXCLUDES(mu_);

  void erase(const std::string& name) DHYFD_EXCLUDES(mu_);
  void clear() DHYFD_EXCLUDES(mu_);

 private:
  struct Entry {
    // Exactly one of table / path is the source.
    std::shared_ptr<const RawTable> table;
    std::string path;
    CsvOptions csv_options;
    // Cached encodings, one slot per NullSemantics value; a slot holds a
    // shared future so concurrent first-getters encode once. Guarded by the
    // registry's mu_ (entries are only mutated through it); the encode
    // itself runs outside the lock on the shared future.
    std::map<NullSemantics, std::shared_future<std::shared_ptr<const Relation>>>
        encoded;
  };

  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Entry>> entries_ DHYFD_GUARDED_BY(mu_);
  MetricsRegistry* metrics_;
};

}  // namespace dhyfd

#endif  // DHYFD_SERVICE_DATASET_REGISTRY_H_
