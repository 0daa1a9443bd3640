#include "algo/dfd.h"

#include <algorithm>

#include "algo/hitting_set.h"
#include "partition/partition_memo.h"
#include "util/cancellation.h"
#include "util/memory.h"
#include "util/timer.h"

namespace dhyfd {

namespace {

// Greedily grows a non-dependency X (X !-> a) to a maximal one.
AttributeSet MaximizeNonDep(PartitionMemo& memo, AttributeSet x, AttrId a,
                            const AttributeSet& rest) {
  (rest - x).for_each([&](AttrId b) {
    AttributeSet bigger = x;
    bigger.set(b);
    if (!memo.implies(bigger, a)) x = bigger;
  });
  return x;
}

}  // namespace

DiscoveryResult Dfd::discover(const Relation& r) {
  Timer timer;
  MemoryWatermark mem;
  DiscoveryResult result;
  const int m = r.num_cols();
  PartitionMemo memo(r);

  for (AttrId a = 0; a < m && !CancelScope::CurrentCancelled(); ++a) {
    AttributeSet rest = AttributeSet::full(m);
    rest.reset(a);
    ++result.stats.validations;
    if (memo.implies(AttributeSet(), a)) {
      result.fds.add(Fd(AttributeSet(), a));
      continue;
    }
    ++result.stats.validations;
    if (!memo.implies(rest, a)) {
      // Even all other attributes fail to determine a (a pair differs only
      // on a): no FD with RHS a exists.
      ++result.stats.invalidated;
      continue;
    }

    // Dualize and advance until the candidate transversals are all valid.
    std::vector<AttributeSet> max_nondeps;
    std::vector<AttributeSet> min_deps;
    bool progressing = true;
    while (progressing && !CancelScope::CurrentCancelled()) {
      progressing = false;
      std::vector<AttributeSet> complements;
      complements.reserve(max_nondeps.size());
      for (const AttributeSet& n : max_nondeps) complements.push_back(rest - n);
      std::vector<AttributeSet> candidates =
          MinimalHittingSets(complements);
      if (CancelScope::CurrentCancelled()) break;
      for (const AttributeSet& x : candidates) {
        if (CancelScope::CurrentCancelled()) break;
        bool known = false;
        for (const AttributeSet& d : min_deps) {
          if (d == x) {
            known = true;
            break;
          }
        }
        if (known) continue;
        ++result.stats.validations;
        if (memo.implies(x, a)) {
          min_deps.push_back(x);
        } else {
          ++result.stats.invalidated;
          max_nondeps.push_back(MaximizeNonDep(memo, x, a, rest));
          progressing = true;
        }
      }
    }
    for (const AttributeSet& lhs : min_deps) result.fds.add(Fd(lhs, a));
    mem.sample();
  }

  result.stats.refinements = memo.partitions_built();
  result.fds.sort();
  result.stats.timed_out = CancelScope::CurrentCancelled();
  result.stats.seconds = timer.seconds();
  result.stats.memory_mb = mem.delta_peak_mb();
  return result;
}

}  // namespace dhyfd
