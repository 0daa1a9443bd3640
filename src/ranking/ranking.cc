#include "ranking/ranking.h"

#include <algorithm>

namespace dhyfd {

int64_t RedundancyCount(const FdRedundancy& red, RedundancyMode mode) {
  switch (mode) {
    case RedundancyMode::kWithNulls:
      return red.with_nulls;
    case RedundancyMode::kExcludingNullRhs:
      return red.excluding_null_rhs;
    case RedundancyMode::kExcludingNullBoth:
      return red.excluding_null_lhs_rhs;
  }
  return 0;
}

std::vector<FdRedundancy> SortByRedundancy(std::vector<FdRedundancy> reds,
                                           RedundancyMode mode) {
  std::stable_sort(reds.begin(), reds.end(),
                   [mode](const FdRedundancy& a, const FdRedundancy& b) {
                     return RedundancyCount(a, mode) > RedundancyCount(b, mode);
                   });
  return reds;
}

std::vector<FdRedundancy> RankFds(const Relation& r, const FdSet& cover,
                                  RedundancyMode mode) {
  return SortByRedundancy(ComputeCoverRedundancy(r, cover).per_fd, mode);
}

RedundancyHistogram BuildRedundancyHistogram(const std::vector<FdRedundancy>& reds,
                                             RedundancyMode mode) {
  static const double kPercents[] = {2.5, 5, 10, 15, 20, 40, 60, 80, 100};
  RedundancyHistogram hist;
  for (const FdRedundancy& red : reds) {
    hist.max_redundancy = std::max(hist.max_redundancy, RedundancyCount(red, mode));
  }
  hist.thresholds.push_back(0);
  for (double p : kPercents) {
    int64_t t = static_cast<int64_t>(p / 100.0 * static_cast<double>(hist.max_redundancy));
    // Keep thresholds strictly increasing even for tiny maxima.
    if (t <= hist.thresholds.back()) t = hist.thresholds.back() + 1;
    hist.thresholds.push_back(t);
  }
  hist.fd_counts.assign(hist.thresholds.size(), 0);
  for (const FdRedundancy& red : reds) {
    int64_t count = RedundancyCount(red, mode);
    for (size_t i = 0; i < hist.thresholds.size(); ++i) {
      if (count <= hist.thresholds[i]) {
        ++hist.fd_counts[i];
        break;
      }
    }
  }
  return hist;
}

std::vector<FdRedundancy> LhsCandidatesForColumn(const Relation& r, const FdSet& cover,
                                                 AttrId column, RedundancyMode mode) {
  FdSet filtered;
  for (const Fd& fd : cover.fds) {
    if (fd.rhs.test(column)) filtered.add(Fd(fd.lhs, column));
  }
  return RankFds(r, filtered, mode);
}

std::string FormatRanking(const Schema& schema, const std::vector<FdRedundancy>& reds,
                          size_t top_n) {
  std::string out;
  size_t n = std::min(top_n, reds.size());
  for (size_t i = 0; i < n; ++i) {
    const FdRedundancy& red = reds[i];
    out += std::to_string(i + 1);
    out += ". ";
    out += red.fd.to_string(schema);
    out += "   #red=" + std::to_string(red.excluding_null_rhs);
    out += " #red+0=" + std::to_string(red.with_nulls);
    out += " #red-0=" + std::to_string(red.excluding_null_lhs_rhs);
    out += '\n';
  }
  if (reds.size() > n) {
    out += "... (" + std::to_string(reds.size() - n) + " more)\n";
  }
  return out;
}

}  // namespace dhyfd
