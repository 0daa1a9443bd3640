#include "query/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/dhyfd.h"
#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "obs/trace.h"
#include "query/topk.h"
#include "ranking/redundancy.h"
#include "util/cancellation.h"
#include "util/timer.h"

namespace dhyfd {

namespace {

/// The query's column scope in ascending schema order (duplicates in the
/// include/exclude lists are harmless).
std::vector<AttrId> ActiveColumns(const Relation& r, const DiscoveryQuery& q) {
  AttributeSet active;
  if (q.include_columns.empty()) {
    active = AttributeSet::full(r.num_cols());
  } else {
    for (AttrId a : q.include_columns) active.set(a);
  }
  for (AttrId a : q.exclude_columns) active.reset(a);
  std::vector<AttrId> cols;
  active.for_each([&](AttrId a) { cols.push_back(a); });
  return cols;
}

/// Full-cover path: DHyFD with the query's bounds threaded through, then the
/// whole cover scored in one rank pass and sorted — discovery-then-rank, but
/// already pruned by epsilon and arity.
QueryResult FullDiscoverRanked(const Relation& r, const DiscoveryQuery& q,
                               const QueryEngineOptions& engine_options) {
  DhyfdOptions opts;
  opts.epsilon = q.epsilon;
  opts.max_lhs = q.max_lhs;
  opts.parallelism = engine_options.parallelism;
  opts.worker_pool = engine_options.worker_pool;
  DiscoveryResult discovered = Dhyfd(opts).discover(r);

  QueryResult result;
  result.stats.validations = discovered.stats.validations;
  result.stats.pruned_epsilon = discovered.stats.invalidated;
  result.stats.levels = discovered.stats.levels;
  result.stats.timed_out = discovered.stats.timed_out;
  CoverRedundancy ranked = ComputeCoverRedundancy(
      r, discovered.fds, engine_options.worker_pool, engine_options.parallelism);
  result.fds.reserve(ranked.per_fd.size());
  for (const FdRedundancy& red : ranked.per_fd) {
    result.fds.push_back(RankedFd{red.fd, RedundancyCount(red, q.ranking_mode)});
  }
  std::sort(result.fds.begin(), result.fds.end(), RankedFdBetter);
  return result;
}

}  // namespace

Relation ProjectRelation(const Relation& r, const std::vector<AttrId>& cols) {
  std::vector<std::string> names;
  names.reserve(cols.size());
  for (AttrId a : cols) names.push_back(r.schema().name(a));
  Relation out(Schema(std::move(names)), r.num_rows());
  for (size_t c = 0; c < cols.size(); ++c) {
    AttrId src = cols[c];
    AttrId dst = static_cast<AttrId>(c);
    for (RowId row = 0; row < r.num_rows(); ++row) {
      out.set_value(row, dst, r.value(row, src));
      if (r.is_null(row, src)) out.set_null(row, dst);
    }
    out.set_domain_size(dst, r.domain_size(src));
  }
  return out;
}

QueryResult QueryEngine::execute(const Relation& r,
                                 const DiscoveryQuery& q) const {
  std::string err = DescribeQueryError(q, r.num_cols());
  if (!err.empty()) {
    throw std::invalid_argument("invalid discovery query: " + err);
  }
  TraceSpan span(kObsQueryExecute);
  ObsAdd(kObsQueryExecutes);
  Timer timer;

  std::vector<AttrId> cols = ActiveColumns(r, q);
  const bool projected = static_cast<int>(cols.size()) < r.num_cols();
  Relation scoped;
  const Relation* target = &r;
  if (projected) {
    TraceSpan project_span(kObsQueryProject);
    scoped = ProjectRelation(r, cols);
    target = &scoped;
  }

  QueryResult result =
      q.top_k > 0 ? TopKDiscover(*target, q) : FullDiscoverRanked(*target, q, options_);
  // A stopped run answers nothing rather than a partial ranking.
  if (CancelScope::CurrentCancelled()) result.fds.clear();

  if (projected) {
    // Map attribute ids from projection positions back to the schema.
    for (RankedFd& f : result.fds) {
      AttributeSet lhs, rhs;
      f.fd.lhs.for_each([&](AttrId a) { lhs.set(cols[a]); });
      f.fd.rhs.for_each([&](AttrId a) { rhs.set(cols[a]); });
      f.fd = Fd(lhs, rhs);
    }
  }
  result.stats.seconds = timer.seconds();

  ObsAdd(kObsQueryValidations, result.stats.validations);
  ObsAdd(kObsQueryPrunedEpsilon, result.stats.pruned_epsilon);
  ObsAdd(kObsQueryPrunedArity, result.stats.pruned_arity);
  ObsAdd(kObsQueryPrunedBound, result.stats.pruned_bound);
  if (result.stats.early_terminated) ObsAdd(kObsQueryEarlyTerminations);
  if (result.stats.timed_out) ObsAdd(kObsQueryTimeouts);
  return result;
}

}  // namespace dhyfd
