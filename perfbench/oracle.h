#ifndef DHYFD_PERFBENCH_ORACLE_H_
#define DHYFD_PERFBENCH_ORACLE_H_

// Output checks that share no code with the layers they check: the data is
// re-coded by the oracle's own dictionary and dependencies are tested by
// grouping rows directly, without partitions, validators or closures.

#include <cstdint>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "incr/update_batch.h"
#include "relation/csv.h"

namespace perfbench {

/// True for the CSV dialect's null tokens (CsvOptions::null_tokens).
bool IsNullCell(const std::string& cell);

/// FNV-1a digest of everything a profile derives: the left-reduced cover
/// (report.discovery.fds), the canonical cover, the ranking order with its
/// counts, and the dataset redundancy.
std::uint64_t ProfileDigest(const dhyfd::ProfileReport& report);

/// A raw table re-coded column by column. Every null token shares one code,
/// which is the null = null semantics the workloads profile under.
class CodedTable {
 public:
  explicit CodedTable(const dhyfd::RawTable& table);

  /// True iff every two rows that agree on `lhs` also agree on `rhs`.
  bool Holds(const dhyfd::AttributeSet& lhs,
             const dhyfd::AttributeSet& rhs) const;

 private:
  std::size_t rows_ = 0;
  std::vector<std::vector<std::uint32_t>> columns_;
};

/// Checks that a seeded sample of `sample` canonical FDs hold on the data
/// and that a seeded sample of left-reduced FDs hold and are minimal (no
/// LHS attribute can be dropped). Returns one line per failure.
std::vector<std::string> CheckCoverSample(const CodedTable& data,
                                          const dhyfd::FdSet& left_reduced,
                                          const dhyfd::FdSet& canonical,
                                          std::uint64_t seed, int sample);

/// The table an update stream leaves behind after its first `applied`
/// batches: initial rows get ids 0..n-1, each insert the next id, and a
/// batch applies its inserts before its deletes.
dhyfd::RawTable ReplayStream(const dhyfd::RawTable& initial,
                             const std::vector<dhyfd::UpdateBatch>& batches,
                             std::size_t applied);

}  // namespace perfbench

#endif  // DHYFD_PERFBENCH_ORACLE_H_
