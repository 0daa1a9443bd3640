#include "algo/agree_sets.h"

#include <algorithm>
#include <unordered_set>

#include "util/cancellation.h"

namespace dhyfd {

std::vector<AttributeSet> ComputeAllAgreeSets(const Relation& r,
                                              int64_t* pairs_compared) {
  std::unordered_set<AttributeSet, AttributeSetHash> distinct;
  const RowId n = r.num_rows();
  const int m = r.num_cols();
  int64_t pairs = 0;
  for (RowId i = 0; i < n; ++i) {
    if (CancelScope::CurrentCancelled()) break;
    for (RowId j = i + 1; j < n; ++j) {
      AttributeSet ag;
      for (AttrId a = 0; a < m; ++a) {
        if (r.column(a)[i] == r.column(a)[j]) ag.set(a);
      }
      ++pairs;
      // A full agree set means duplicate tuples; it implies no non-FD.
      if (ag.count() < m) distinct.insert(ag);
    }
  }
  if (pairs_compared != nullptr) *pairs_compared += pairs;
  return {distinct.begin(), distinct.end()};
}

std::vector<AttributeSet> MaximalAgreeSets(std::vector<AttributeSet> sets) {
  // Sort descending by size: a set can only be contained in a larger one.
  SortBySizeDescending(sets);
  std::vector<AttributeSet> maximal;
  for (const AttributeSet& s : sets) {
    bool dominated = false;
    for (const AttributeSet& kept : maximal) {
      if (s.is_subset_of(kept)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) maximal.push_back(s);
  }
  return maximal;
}

std::vector<NonFd> NonRedundantNonFds(std::vector<AttributeSet> sets, int num_attrs) {
  SortBySizeDescending(sets);
  const AttributeSet all = AttributeSet::full(num_attrs);
  std::vector<NonFd> out;
  out.reserve(sets.size());
  for (const AttributeSet& z : sets) out.push_back({z, all - z});
  // A strictly larger agree set z' makes (z, a) redundant for every RHS
  // attribute a outside z'. Sorted descending, dominators precede.
  for (size_t i = 0; i < out.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (out[i].lhs.is_subset_of(out[j].lhs)) out[i].rhs -= all - out[j].lhs;
      if (out[i].rhs.empty()) break;
    }
  }
  std::vector<NonFd> filtered;
  for (NonFd& nf : out) {
    if (!nf.rhs.empty()) filtered.push_back(std::move(nf));
  }
  return filtered;
}

void SortBySizeDescending(std::vector<AttributeSet>& sets) {
  std::sort(sets.begin(), sets.end(), [](const AttributeSet& a, const AttributeSet& b) {
    int ca = a.count(), cb = b.count();
    if (ca != cb) return ca > cb;
    return b < a;
  });
}

}  // namespace dhyfd
