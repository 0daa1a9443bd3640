#ifndef DHYFD_QUERY_TOPK_H_
#define DHYFD_QUERY_TOPK_H_

#include "query/query.h"
#include "relation/relation.h"

namespace dhyfd {

/// Rank-driven lattice traversal for top-k queries (q.top_k > 0): a
/// TANE-style level walk that keeps a min-heap of the k best-ranked FDs
/// found so far plus an admissible upper bound on the score of anything
/// still unexplored, and stops — provably without missing a top-k member —
/// once the bound can no longer beat the heap floor.
///
/// The bound: an FD emitted at a deeper level has an LHS W whose lattice
/// entry descends from the surviving entries of the current level, so some
/// surviving Z satisfies Z subseteq W; redundancy scores count pi_{LHS}
/// arena rows, and supports only shrink under refinement, hence
/// score(W -> A) <= ||pi_W|| <= ||pi_Z|| <= max surviving support. Ties at
/// the floor cannot displace either: every heap member has a strictly
/// smaller LHS than any future candidate, and ties rank small-LHS-first
/// (see DESIGN.md "Rank-driven queries" for the full argument).
///
/// `r` must already be projected to the query's column scope; attribute ids
/// in the result refer to r's schema. The walk polls the caller's
/// CancelScope token and sets stats.timed_out when it stops.
QueryResult TopKDiscover(const Relation& r, const DiscoveryQuery& q);

}  // namespace dhyfd

#endif  // DHYFD_QUERY_TOPK_H_
