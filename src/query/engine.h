#ifndef DHYFD_QUERY_ENGINE_H_
#define DHYFD_QUERY_ENGINE_H_

#include "query/query.h"
#include "relation/relation.h"

namespace dhyfd {

class ThreadPool;

struct QueryEngineOptions {
  /// Cooperative deadline in seconds (0 = none); expiry sets
  /// stats.timed_out and the result is partial.
  double time_limit_seconds = 0;
  /// Threads used by the full-discovery path (DHyFD and its rank pass),
  /// including the calling thread; the ranked answer is bit-identical at any
  /// degree. The top-k lattice walk is sequential and ignores this.
  int parallelism = 1;
  /// Pool the discovery and rank shards fan out over (not owned).
  ThreadPool* worker_pool = nullptr;
};

/// Executes DiscoveryQuery specs. Routing:
///
///   top_k > 0            -> the rank-driven lattice walk (query/topk.h)
///   top_k == 0           -> DHyFD with the query's epsilon / arity bounds
///                           threaded through, then ranked in full by one
///                           ComputeCoverRedundancy pass (a cancelled pass
///                           answers an empty list)
///
/// so an unconstrained query (epsilon 0, k 0, unbounded arity) returns
/// exactly the DHyFD cover in rank order. Column include/exclude scopes run
/// discovery on a projected copy of the relation; result attribute ids are
/// mapped back to the original schema.
class QueryEngine {
 public:
  explicit QueryEngine(QueryEngineOptions options = {}) : options_(options) {}

  /// Throws std::invalid_argument when DescribeQueryError rejects the spec
  /// against r's schema.
  QueryResult execute(const Relation& r, const DiscoveryQuery& q) const;

 private:
  QueryEngineOptions options_;
};

/// Copies the given columns (in the given order) into a standalone relation;
/// nulls and dense value codes are preserved. Exposed for tests.
Relation ProjectRelation(const Relation& r, const std::vector<AttrId>& cols);

}  // namespace dhyfd

#endif  // DHYFD_QUERY_ENGINE_H_
