#include "algo/rowbased.h"

#include <algorithm>

#include "algo/agree_sets.h"
#include "algo/hitting_set.h"
#include "util/cancellation.h"
#include "util/memory.h"
#include "util/timer.h"

namespace dhyfd {

DiscoveryResult RowBasedTransversal::discover(const Relation& r) {
  Timer timer;
  MemoryWatermark mem;
  DiscoveryResult result;
  const int m = r.num_cols();

  std::vector<AttributeSet> agree_sets =
      ComputeAllAgreeSets(r, &result.stats.pairs_compared);
  result.stats.sampled_non_fds = static_cast<int64_t>(agree_sets.size());

  for (AttrId a = 0; a < m && !CancelScope::CurrentCancelled(); ++a) {
    // Agree sets relevant to RHS a: those not containing a. Maximality may
    // only be applied per attribute (a globally dominated agree set can
    // still be the strongest constraint for attributes its dominator
    // contains).
    std::vector<AttributeSet> relevant;
    for (const AttributeSet& z : agree_sets) {
      if (!z.test(a)) relevant.push_back(z);
    }
    if (variant_ == RowBasedVariant::kDepMiner) {
      // Dep-Miner's max sets: maximal agree sets w.r.t. attribute a.
      relevant = MaximalAgreeSets(std::move(relevant));
    }
    // Family for RHS a: complements (minus a) of the relevant agree sets.
    std::vector<AttributeSet> family;
    bool impossible = false;
    for (const AttributeSet& z : relevant) {
      AttributeSet diff = z.complement(m);
      diff.reset(a);
      if (diff.empty()) {
        // A pair differs exactly on a: no FD with RHS a can hold.
        impossible = true;
        break;
      }
      family.push_back(diff);
    }
    if (impossible) continue;
    if (family.empty()) {
      // No pair ever differs on a without the constraint set: a holds from
      // the empty LHS only if no pair disagrees on a at all.
      result.fds.add(Fd(AttributeSet(), a));
      ++result.stats.validations;
      continue;
    }
    std::vector<AttributeSet> lhss = MinimalHittingSets(family);
    result.stats.validations += static_cast<int64_t>(lhss.size());
    if (CancelScope::CurrentCancelled()) break;
    for (const AttributeSet& lhs : lhss) result.fds.add(Fd(lhs, a));
  }

  result.fds.sort();
  result.stats.timed_out = CancelScope::CurrentCancelled();
  result.stats.seconds = timer.seconds();
  size_t logical = agree_sets.capacity() * sizeof(AttributeSet);
  result.stats.memory_mb = std::max(
      mem.delta_peak_mb(), static_cast<double>(logical) / (1024.0 * 1024.0));
  return result;
}

}  // namespace dhyfd
