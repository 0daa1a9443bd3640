#ifndef DHYFD_RANKING_REDUNDANCY_H_
#define DHYFD_RANKING_REDUNDANCY_H_

#include <cstdint>
#include <vector>

#include "fd/fd_set.h"
#include "relation/relation.h"

namespace dhyfd {

/// Redundant data-value occurrences caused by one FD (Vincent's notion,
/// paper Section VI): an occurrence t(A) is redundant w.r.t. X -> A iff
/// another tuple shares t's X-projection — changing t(A) alone would then
/// violate the FD. For a valid FD that is exactly the tuples inside the
/// clusters of pi_X, once per RHS attribute.
struct FdRedundancy {
  Fd fd;
  /// #red+0: every redundant occurrence, null markers included.
  int64_t with_nulls = 0;
  /// #red: redundant occurrences whose own value is not a null marker.
  int64_t excluding_null_rhs = 0;
  /// #red-0 (Figure 11): additionally requires no null on any LHS attribute
  /// of the witnessing tuple.
  int64_t excluding_null_lhs_rhs = 0;
};

class StrippedPartition;
class ThreadPool;

/// Redundancy counts for one FD from an already-built pi_{lhs}. The query
/// engine scores candidates with the partitions its lattice traversal holds
/// anyway; sharing this kernel keeps those scores bit-identical to the
/// discover-then-rank pipeline.
FdRedundancy FdRedundancyFromPartition(const Relation& r, const Fd& fd,
                                       const StrippedPartition& pi_lhs);

/// Dataset-level redundancy (Table IV): an occurrence counts once no matter
/// how many FDs of the cover make it redundant.
struct DatasetRedundancy {
  int64_t num_values = 0;  // #values = rows * cols
  int64_t red = 0;         // #red   (occurrence itself not null)
  int64_t red_plus0 = 0;   // #red+0 (nulls included)

  double percent_red() const {
    return num_values ? 100.0 * static_cast<double>(red) / static_cast<double>(num_values) : 0;
  }
  double percent_red_plus0() const {
    return num_values
               ? 100.0 * static_cast<double>(red_plus0) / static_cast<double>(num_values)
               : 0;
  }
};

/// Per-FD counts, in cover order, and the dataset counts of one cover.
struct CoverRedundancy {
  std::vector<FdRedundancy> per_fd;
  DatasetRedundancy dataset;
  /// Attribute refinements spent building the LHS partitions.
  int64_t refinements = 0;
};

/// Both halves of CoverRedundancy for a (valid) cover in one loop: each
/// pi_LHS is built once, scored, and its arena marks the redundant cells.
/// LHSs are visited in lexicographic attribute-list order, and each pi_LHS
/// is refined from the partition of the longest prefix it shares with the
/// previous LHS, so sibling LHSs share their common prefix's refinements.
///
/// With a `pool` (not owned, may be null) the lexicographic order is cut
/// into up to `parallelism` contiguous chunks, one shard each with its own
/// refiner and prefix stack; per_fd and the dataset counts are the same at
/// any degree, while `refinements` grows by each later chunk's first LHS.
/// Every shard polls the caller's CancelScope token every
/// kCancelPollInterval FDs; a cancelled run returns an empty result, never
/// a partial one.
///
/// `rows` (not owned, may be null) is the root partition pi_{}: only its
/// rows are counted, and every LHS partition is refined from it. Null means
/// every row of `r`. A LiveRelation passes its whole_live_cluster(), so
/// tombstoned rows are never counted; `dataset.num_values` is then
/// ||rows|| * cols (a root of fewer than two rows is empty).
CoverRedundancy ComputeCoverRedundancy(const Relation& r, const FdSet& cover,
                                       ThreadPool* pool = nullptr, int parallelism = 1,
                                       const StrippedPartition* rows = nullptr);

/// O(rows^2) reference counter for one FD; cross-checks the partition-based
/// counters in tests.
FdRedundancy BruteForceFdRedundancy(const Relation& r, const Fd& fd);

}  // namespace dhyfd

#endif  // DHYFD_RANKING_REDUNDANCY_H_
