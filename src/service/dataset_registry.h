#ifndef DHYFD_SERVICE_DATASET_REGISTRY_H_
#define DHYFD_SERVICE_DATASET_REGISTRY_H_

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

/// Holds each registered dataset as one DIIS encoding, its kNullEqualsNull
/// codes, so repeated profiling jobs against the same table skip re-reading
/// and re-encoding it: the EAIFD view of profiling as repeated jobs over
/// (mostly) stable datasets rather than one-shot batches. The raw strings
/// and dictionaries are not kept; a kNullNotEqualsNull job gets the stored
/// codes with each null moved to a fresh code (SeparateNulls).
///
/// Thread safety: all methods may be called concurrently.
class DatasetRegistry {
 public:
  /// `metrics` is optional; when set, the registry reports a
  /// dataset.encode_seconds histogram into it. Not owned.
  explicit DatasetRegistry(MetricsRegistry* metrics = nullptr)
      : metrics_(metrics) {}

  /// Encodes `table` and registers it under `name`, replacing any previous
  /// registration. A table too wide for an AttributeSet throws
  /// std::invalid_argument and registers nothing.
  void add_table(const std::string& name, const RawTable& table)
      DHYFD_EXCLUDES(mu_);

  /// Registers already-encoded kNullEqualsNull codes under `name` (say, a
  /// live dataset's initial codes), replacing any previous registration,
  /// without encoding anything.
  void add_relation(const std::string& name,
                    std::shared_ptr<const Relation> codes) DHYFD_EXCLUDES(mu_);

  /// The encoded relation for `name` under `semantics`. Throws
  /// std::out_of_range for unknown names. Under kNullEqualsNull every call
  /// shares the stored relation; under kNullNotEqualsNull each call derives
  /// its own. The returned pointer stays valid after a later registration
  /// replaces the name.
  std::shared_ptr<const Relation> get(const std::string& name,
                                      NullSemantics semantics)
      DHYFD_EXCLUDES(mu_);

  bool contains(const std::string& name) const DHYFD_EXCLUDES(mu_);
  std::vector<std::string> names() const DHYFD_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  // Per name, the kNullEqualsNull codes.
  std::map<std::string, std::shared_ptr<const Relation>> relations_
      DHYFD_GUARDED_BY(mu_);
  MetricsRegistry* metrics_;
};

}  // namespace dhyfd

#endif  // DHYFD_SERVICE_DATASET_REGISTRY_H_
