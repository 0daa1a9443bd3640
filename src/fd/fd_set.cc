#include "fd/fd_set.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

namespace dhyfd {

FdSet FdSet::with_singleton_rhs() const {
  FdSet out;
  out.fds.reserve(fds.size());
  for (const Fd& fd : fds) {
    fd.rhs.for_each([&](AttrId a) { out.fds.emplace_back(fd.lhs, a); });
  }
  return out;
}

FdSet FdSet::with_merged_lhs() const {
  std::unordered_map<AttributeSet, AttributeSet, AttributeSetHash> merged;
  std::vector<AttributeSet> order;
  for (const Fd& fd : fds) {
    auto [it, inserted] = merged.emplace(fd.lhs, fd.rhs);
    if (inserted) {
      order.push_back(fd.lhs);
    } else {
      it->second |= fd.rhs;
    }
  }
  FdSet out;
  out.fds.reserve(order.size());
  for (const AttributeSet& lhs : order) out.fds.emplace_back(lhs, merged[lhs]);
  return out;
}

namespace {

bool SortOrder(const Fd& a, const Fd& b) {
  int ca = a.lhs.count(), cb = b.lhs.count();
  if (ca != cb) return ca < cb;
  if (a.lhs != b.lhs) return a.lhs < b.lhs;
  return a.rhs < b.rhs;
}

}  // namespace

void FdSet::sort() { std::sort(fds.begin(), fds.end(), SortOrder); }

FdSet FdSet::minus(const FdSet& other) const {
  FdSet out;
  std::set_difference(fds.begin(), fds.end(), other.fds.begin(), other.fds.end(),
                      std::back_inserter(out.fds), SortOrder);
  return out;
}

}  // namespace dhyfd
