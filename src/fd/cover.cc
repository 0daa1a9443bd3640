#include "fd/cover.h"

#include <set>
#include <unordered_set>
#include <utility>

namespace dhyfd {

FdSet CanonicalCover(const FdSet& left_reduced, int num_attrs) {
  FdSet singles = left_reduced.with_singleton_rhs();
  ClosureEngine engine(singles, num_attrs);
  std::vector<uint8_t> alive(singles.fds.size(), 1);
  // Drop each FD that the remaining live FDs already imply. Scanning in
  // order is the classical non-redundant-cover reduction; any order yields
  // a valid (possibly different) canonical cover.
  for (int i = 0; i < static_cast<int>(singles.fds.size()); ++i) {
    alive[i] = 0;
    if (!engine.implies(singles.fds[i].lhs, singles.fds[i].rhs, -1, &alive)) {
      alive[i] = 1;
    }
  }
  FdSet non_redundant;
  for (size_t i = 0; i < singles.fds.size(); ++i) {
    if (alive[i]) non_redundant.add(singles.fds[i]);
  }
  return non_redundant.with_merged_lhs();
}

FdSet LeftReduce(const FdSet& fds, int num_attrs) {
  FdSet singles = fds.with_singleton_rhs();
  ClosureEngine engine(singles, num_attrs);
  FdSet out;
  std::set<std::pair<AttributeSet, AttributeSet>> seen;
  for (const Fd& fd : singles.fds) {
    if (fd.lhs.test(fd.rhs.first())) continue;  // trivial
    AttributeSet lhs = fd.lhs;
    // Greedily drop attributes whose removal preserves implication.
    fd.lhs.for_each([&](AttrId a) {
      AttributeSet candidate = lhs;
      candidate.reset(a);
      if (engine.implies(candidate, fd.rhs)) lhs = candidate;
    });
    if (seen.emplace(lhs, fd.rhs).second) out.add(Fd(lhs, fd.rhs));
  }
  return out;
}

bool IsLeftReduced(const FdSet& fds, int num_attrs) {
  FdSet singles = fds.with_singleton_rhs();
  ClosureEngine engine(singles, num_attrs);
  for (const Fd& fd : singles.fds) {
    bool reducible = false;
    fd.lhs.for_each([&](AttrId a) {
      if (reducible) return;
      AttributeSet candidate = fd.lhs;
      candidate.reset(a);
      if (engine.implies(candidate, fd.rhs)) reducible = true;
    });
    if (reducible) return false;
  }
  return true;
}

bool IsNonRedundant(const FdSet& fds, int num_attrs) {
  ClosureEngine engine(fds, num_attrs);
  for (int i = 0; i < static_cast<int>(fds.fds.size()); ++i) {
    if (engine.implies(fds.fds[i].lhs, fds.fds[i].rhs, i)) return false;
  }
  return true;
}

bool HasUniqueLhs(const FdSet& fds) {
  std::unordered_set<size_t> seen;
  for (const Fd& fd : fds.fds) {
    if (!seen.insert(fd.lhs.hash()).second) {
      // Hash collision or true duplicate: verify by scan.
      int hits = 0;
      for (const Fd& other : fds.fds) {
        if (other.lhs == fd.lhs) ++hits;
      }
      if (hits > 1) return false;
    }
  }
  return true;
}

CoverStats ComputeCoverStats(const FdSet& left_reduced, const FdSet& canonical) {
  CoverStats stats;
  stats.left_reduced_count = left_reduced.size();
  stats.left_reduced_occurrences = left_reduced.attribute_occurrences();
  stats.canonical_count = canonical.size();
  stats.canonical_occurrences = canonical.attribute_occurrences();
  if (stats.left_reduced_count > 0) {
    stats.percent_size =
        100.0 * static_cast<double>(stats.canonical_count) /
        static_cast<double>(stats.left_reduced_count);
  }
  if (stats.left_reduced_occurrences > 0) {
    stats.percent_card =
        100.0 * static_cast<double>(stats.canonical_occurrences) /
        static_cast<double>(stats.left_reduced_occurrences);
  }
  return stats;
}

}  // namespace dhyfd
