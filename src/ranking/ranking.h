#ifndef DHYFD_RANKING_RANKING_H_
#define DHYFD_RANKING_RANKING_H_

#include <string>
#include <vector>

#include "ranking/redundancy.h"

namespace dhyfd {

/// Which redundancy count orders the ranking.
enum class RedundancyMode {
  kWithNulls,          // #red+0
  kExcludingNullRhs,   // #red
  kExcludingNullBoth,  // #red-0
};

int64_t RedundancyCount(const FdRedundancy& red, RedundancyMode mode);

/// Ranks a cover's FDs by descending redundancy (paper Section VI: high
/// counts mean the "X determines Y" pattern has strong support; zero counts
/// hint at keys; low-but-nonzero counts flag accidental FDs or dirty data).
std::vector<FdRedundancy> RankFds(const Relation& r, const FdSet& cover,
                                  RedundancyMode mode = RedundancyMode::kExcludingNullRhs);

/// Stable sort by descending redundancy: ties keep their input (cover) order.
std::vector<FdRedundancy> SortByRedundancy(std::vector<FdRedundancy> reds,
                                           RedundancyMode mode);

/// The bucketed distribution of Figures 10 and 11: bucket i counts the FDs
/// whose redundancy lies in (thresholds[i-1], thresholds[i]]; bucket 0
/// counts FDs with redundancy exactly 0. Thresholds are 2.5%, 5%, 10%, 15%,
/// 20%, 40%, 60%, 80%, 100% of the maximum per-FD redundancy.
struct RedundancyHistogram {
  std::vector<int64_t> thresholds;  // first entry is 0
  std::vector<int64_t> fd_counts;   // same length
  int64_t max_redundancy = 0;
};

RedundancyHistogram BuildRedundancyHistogram(const std::vector<FdRedundancy>& reds,
                                             RedundancyMode mode);

/// The qualitative "fix a column of interest" view (Section VI-B): all FDs
/// of the cover whose RHS contains `column`, with their redundancy counts,
/// sorted descending by the chosen mode.
std::vector<FdRedundancy> LhsCandidatesForColumn(
    const Relation& r, const FdSet& cover, AttrId column,
    RedundancyMode mode = RedundancyMode::kExcludingNullRhs);

/// Human-readable ranking report used by the examples.
std::string FormatRanking(const Schema& schema, const std::vector<FdRedundancy>& reds,
                          size_t top_n = 20);

}  // namespace dhyfd

#endif  // DHYFD_RANKING_RANKING_H_
