#ifndef DHYFD_ALGO_AGREE_SETS_H_
#define DHYFD_ALGO_AGREE_SETS_H_

#include <vector>

#include "relation/relation.h"
#include "util/attribute_set.h"

namespace dhyfd {

/// The distinct agree sets ag(t, t') over all pairs of distinct tuples
/// (paper Section IV-A). Each agree set X implies the non-FD X !-> R - X.
/// O(rows^2 * cols); this is the row-based algorithms' core cost.
/// Stops early, returning a partial result, if the caller's CancelScope
/// token fires.
std::vector<AttributeSet> ComputeAllAgreeSets(const Relation& r,
                                              int64_t* pairs_compared = nullptr);

/// Keeps only maximal agree sets (none a subset of another). NOTE: this is
/// NOT a complete negative cover on its own — a subsumed agree set Z of
/// Z' still refutes FDs whose RHS lies inside Z' - Z. Use
/// NonRedundantNonFds for induction.
std::vector<AttributeSet> MaximalAgreeSets(std::vector<AttributeSet> sets);

/// A non-FD with an explicitly restricted RHS: lhs !-> rhs.
struct NonFd {
  AttributeSet lhs;
  AttributeSet rhs;
};

/// The non-redundant cover of non-FDs FDEP1 inducts from: for each agree
/// set Z, the RHS is trimmed to the attributes A for which Z is maximal
/// among agree sets not containing A (per-attribute maximality). Entries
/// whose RHS empties out are dropped. Complete: every non-FD (Z, A) is
/// dominated by some retained (Z', A) with Z subseteq Z'.
std::vector<NonFd> NonRedundantNonFds(std::vector<AttributeSet> sets, int num_attrs);

/// Sorts descending by set size (ties by bits); the order FDEP2/DHyFD apply
/// non-FDs in (paper: most specific non-FDs first avoid redundant
/// inductions).
void SortBySizeDescending(std::vector<AttributeSet>& sets);

}  // namespace dhyfd

#endif  // DHYFD_ALGO_AGREE_SETS_H_
