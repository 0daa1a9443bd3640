#include "fd/cover.h"

#include <set>
#include <unordered_set>
#include <utility>

#include "util/cancellation.h"

namespace dhyfd {

FdSet CanonicalCover(const FdSet& left_reduced, int num_attrs, int64_t* implications) {
  if (implications != nullptr) *implications = 0;
  // An already-cancelled run skips the set-up too (the split, the engine).
  if (CancelScope::CurrentCancelled()) return FdSet();
  FdSet singles = left_reduced.with_singleton_rhs();
  const int n = static_cast<int>(singles.fds.size());
  ClosureEngine engine(singles, num_attrs);
  // Drop each FD that the remaining enabled FDs already imply. Scanning in
  // order is the classical non-redundant-cover reduction; any order yields
  // a valid (possibly different) canonical cover.
  int checked = 0;
  for (; checked < n; ++checked) {
    if (checked % kCancelPollInterval == 0 && CancelScope::CurrentCancelled()) break;
    const Fd& fd = singles.fds[checked];
    engine.disable(checked);
    if (!engine.implies(fd.lhs, fd.rhs)) engine.enable(checked);
  }
  if (implications != nullptr) *implications = checked;
  if (checked < n) return FdSet();
  FdSet non_redundant;
  for (int i = 0; i < n; ++i) {
    if (engine.enabled(i)) non_redundant.add(singles.fds[i]);
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
    engine.disable(i);
    if (engine.implies(fds.fds[i].lhs, fds.fds[i].rhs)) return false;
    engine.enable(i);
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
