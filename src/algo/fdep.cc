#include "algo/fdep.h"

#include <algorithm>

#include "algo/agree_sets.h"
#include "fdtree/extended_fd_tree.h"
#include "fdtree/fd_tree.h"
#include "util/cancellation.h"
#include "util/memory.h"
#include "util/timer.h"

namespace dhyfd {

std::string Fdep::name() const {
  switch (variant_) {
    case FdepVariant::kClassic:
      return "fdep";
    case FdepVariant::kNonRedundant:
      return "fdep1";
    case FdepVariant::kSorted:
      return "fdep2";
  }
  return "fdep?";
}

DiscoveryResult Fdep::discover(const Relation& r) {
  Timer timer;
  MemoryWatermark mem;
  DiscoveryResult result;
  const int m = r.num_cols();
  const AttributeSet all = AttributeSet::full(m);

  std::vector<AttributeSet> agree_sets =
      ComputeAllAgreeSets(r, &result.stats.pairs_compared);
  result.stats.sampled_non_fds = static_cast<int64_t>(agree_sets.size());
  mem.sample();

  size_t tree_bytes = 0;
  if (variant_ == FdepVariant::kClassic) {
    // Classic FD-tree, one induction per RHS attribute of each non-FD.
    SortBySizeDescending(agree_sets);
    FdTree tree(m);
    for (AttrId a = 0; a < m; ++a) tree.add(AttributeSet(), a);
    for (const AttributeSet& x : agree_sets) {
      if (CancelScope::CurrentCancelled()) break;
      (x.complement(m)).for_each([&](AttrId a) { tree.induct(x, a); });
    }
    result.fds = tree.collect();
    tree_bytes = tree.memory_bytes();
  } else if (variant_ == FdepVariant::kNonRedundant) {
    // FDEP1: per-attribute-maximal (non-redundant) cover of non-FDs, then
    // synergized induction.
    std::vector<NonFd> cover = NonRedundantNonFds(std::move(agree_sets), m);
    ExtendedFdTree tree(m);
    tree.init_root_fd(all);
    for (const NonFd& nf : cover) {
      if (CancelScope::CurrentCancelled()) break;
      tree.induct(nf.lhs, nf.rhs);
    }
    result.fds = tree.collect();
    tree_bytes = tree.memory_bytes();
  } else {
    // FDEP2: all non-FDs, most specific first, synergized induction over an
    // extended FD-tree (one traversal per non-FD, whatever its RHS width).
    SortBySizeDescending(agree_sets);
    ExtendedFdTree tree(m);
    tree.init_root_fd(all);
    for (const AttributeSet& x : agree_sets) {
      if (CancelScope::CurrentCancelled()) break;
      tree.induct(x, all - x);
    }
    result.fds = tree.collect();
    tree_bytes = tree.memory_bytes();
  }

  result.fds.sort();
  result.stats.timed_out = CancelScope::CurrentCancelled();
  result.stats.seconds = timer.seconds();
  size_t logical = agree_sets.capacity() * sizeof(AttributeSet) + tree_bytes;
  result.stats.memory_mb = std::max(
      mem.delta_peak_mb(), static_cast<double>(logical) / (1024.0 * 1024.0));
  return result;
}

}  // namespace dhyfd
