#ifndef DHYFD_ALGO_HITTING_SET_H_
#define DHYFD_ALGO_HITTING_SET_H_

#include <vector>

#include "util/attribute_set.h"

namespace dhyfd {

/// Minimal hitting sets (hypergraph transversals) over attribute sets.
///
/// The row-based discovery family the paper cites — FastFDs (Wyss et al.)
/// and Dep-Miner (Lopes et al.) — reduces "minimal LHSs of valid FDs" to
/// minimal transversals of difference-set hypergraphs; the Armstrong
/// generator uses the same duality in reverse.
///
/// Implementation: Berge's incremental algorithm with minimization at each
/// step. Exponential in the worst case (the output can be exponential);
/// `max_results` caps the enumeration (0 = unlimited). If the caller's
/// CancelScope token fires the enumeration stops; the returned sets are then
/// partial (they may miss transversals and need not hit the unprocessed
/// family members) and must only be used as a best-effort answer.
std::vector<AttributeSet> MinimalHittingSets(const std::vector<AttributeSet>& family,
                                             size_t max_results = 0);

/// True if `candidate` intersects every set of the family.
bool HitsAll(const std::vector<AttributeSet>& family, const AttributeSet& candidate);

}  // namespace dhyfd

#endif  // DHYFD_ALGO_HITTING_SET_H_
