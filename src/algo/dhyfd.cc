#include "algo/dhyfd.h"

#include <algorithm>
#include <memory>

#include "algo/agree_sets.h"
#include "algo/ddm.h"
#include "algo/sampler.h"
#include "algo/validator.h"
#include "fdtree/extended_fd_tree.h"
#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "obs/trace.h"
#include "util/cancellation.h"
#include "util/memory.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dhyfd {

DiscoveryResult Dhyfd::discover(const Relation& r) {
  Timer timer;
  MemoryWatermark mem;
  DiscoveryResult result;
  const int m = r.num_cols();
  const AttributeSet all = AttributeSet::full(m);
  // Set-up (the DDM's partitions, the sampler, the root validation) costs
  // a pass over the relation per step, so a fired token skips what is left.
  if (CancelScope::CurrentCancelled()) {
    result.stats.timed_out = true;
    return result;
  }

  // Intra-job parallelism: shards fan out over the (shared) worker pool,
  // help-first, with the calling thread always participating. Each shard
  // gets its own refiner — the refiners' counting arenas are the only
  // mutable state validation shares.
  ThreadPool* pool = options_.worker_pool;
  const int par = pool != nullptr ? std::max(1, options_.parallelism) : 1;
  std::vector<std::unique_ptr<PartitionRefiner>> shard_refiners;
  for (int i = 0; i < (par > 1 ? par : 0); ++i) {
    shard_refiners.push_back(std::make_unique<PartitionRefiner>(r));
  }

  // Algorithm 6 line 3: the DDM pre-computes every single-attribute
  // stripped partition. A stopped build leaves it partial, unfit to read.
  Ddm ddm(r);
  if (CancelScope::CurrentCancelled()) {
    result.stats.timed_out = true;
    return result;
  }

  // Line 4: the extended FD-tree starts from the single FD {} -> R.
  ExtendedFdTree tree(m);
  tree.init_root_fd(all);
  tree.set_controlled_level(1);

  // Approximate mode: exact pair-based evidence is unsound (a violating
  // pair refutes an exact FD, not one allowed `budget` removals), so the
  // sampling phase is skipped and refuted candidates are specialized
  // wholesale through the tree instead of via sampled agree sets.
  const int64_t budget = ApproxRemovalBudget(options_.epsilon, r.num_rows());
  const bool approx = budget > 0;

  // Lines 5-6: one-off sorted-neighborhood sampling, plus validating the
  // root FD against the whole relation (partition {r}). The span covers the
  // neighborhood build; the sampler's row copy and neighborhoods are freed
  // before validation starts.
  std::vector<AttributeSet> violations;
  if (!approx && !CancelScope::CurrentCancelled()) {
    TraceSpan span(kObsDiscoverSampling);
    NeighborhoodSampler sampler(r, pool, par);
    violations = sampler.initial(options_.initial_sampling_windows);
    result.stats.pairs_compared += sampler.pairs_compared();
  }
  result.stats.sampled_non_fds = static_cast<int64_t>(violations.size());
  if (!CancelScope::CurrentCancelled()) {
    StrippedPartition whole = StrippedPartition::whole(r.num_rows());
    result.stats.validations += tree.root_rhs().count();
    AttributeSet root_rhs = tree.root_rhs();
    ValidationOutcome v =
        approx ? ValidateApproxWithPartition(r, AttributeSet(), root_rhs, whole,
                                             AttributeSet(), ddm.refiner(), budget)
               : ValidateWithPartition(r, AttributeSet(), root_rhs, whole,
                                       AttributeSet(), ddm.refiner());
    result.stats.pairs_compared += v.pairs_checked;
    result.stats.invalidated += root_rhs.count() - v.valid_rhs.count();
    if (approx) {
      AttributeSet refuted = root_rhs - v.valid_rhs;
      if (!refuted.empty()) tree.induct(AttributeSet(), refuted);
    }
    for (AttributeSet& z : v.violations) violations.push_back(z);
  }

  // Lines 7-8: induct all initial non-FDs, most specific first.
  {
    TraceSpan span(kObsDiscoverInduction);
    SortBySizeDescending(violations);
    for (const AttributeSet& x : violations) {
      if (CancelScope::CurrentCancelled()) break;
      tree.induct(x, all - x);
    }
    ObsAdd(kObsDiscoverInductions, static_cast<int64_t>(violations.size()));
  }

  // Lines 9-10.
  size_t logical_peak = 0;
  int cl = 1;
  int vl = 1;
  int64_t num_fds = 0;
  std::vector<ExtendedFdTree::NodeId> candidates = tree.level_nodes(1);

  // Per-candidate validation body: candidates are independent (paper
  // Alg. 4), so a contiguous range of them is the shard unit. Everything a
  // candidate writes is local (the node's own id re-pointing included —
  // each node is visited by exactly one shard); the shared DDM is read-only
  // during a level.
  auto validate_range = [&](const std::vector<ExtendedFdTree::NodeId>& nodes,
                            PartitionRefiner& refiner, size_t begin,
                            size_t end) {
    LevelValidationResult local;
    for (size_t i = begin; i < end; ++i) {
      if (CancelScope::CurrentCancelled()) break;
      const ExtendedFdTree::NodeId n = nodes[i];
      const ExtendedFdTree::Node& node = tree.node(n);
      if (!node.is_fd_node()) continue;
      AttributeSet lhs = tree.path_of(n);
      // Lines 15-16: a node without a dynamic partition starts from the
      // path attribute with the smallest single-attribute support.
      if (node.id < m) {
        AttrId best = lhs.first();
        lhs.for_each([&](AttrId a) {
          if (ddm.attribute_support(a) < ddm.attribute_support(best)) best = a;
        });
        tree.set_id(n, best);
      }
      // Lines 17-18: validate from the DDM's partition for this node.
      const StrippedPartition& base = ddm.partition_for_id(node.id);
      AttributeSet base_attrs = ddm.attrs_for_id(node.id);
      local.validations += node.rhs.count();
      AttributeSet node_rhs = node.rhs;
      ValidationOutcome v =
          approx ? ValidateApproxWithPartition(r, lhs, node_rhs, base,
                                               base_attrs, refiner, budget)
                 : ValidateWithPartition(r, lhs, node_rhs, base, base_attrs,
                                         refiner);
      local.pairs_checked += v.pairs_checked;
      local.refinements += v.refinements;
      local.invalidated += node_rhs.count() - v.valid_rhs.count();
      if (approx) {
        AttributeSet refuted = node_rhs - v.valid_rhs;
        if (!refuted.empty()) local.refuted_fds.emplace_back(lhs, refuted);
      }
      for (AttributeSet& z : v.violations) local.violations.push_back(z);
    }
    return local;
  };

  auto validate_level =
      [&](const std::vector<ExtendedFdTree::NodeId>& nodes) {
        if (par > 1 && nodes.size() > 1) {
          ParFdStorageBuilder builder(
              std::min(nodes.size(), static_cast<std::size_t>(par)));
          pool->parallel_for(
              nodes.size(), par,
              [&](size_t shard, size_t begin, size_t end) {
                builder.add(shard, validate_range(nodes, *shard_refiners[shard],
                                                  begin, end));
              },
              kObsDiscoverShard);
          return builder.take_merged();
        }
        return validate_range(nodes, ddm.refiner(), 0, nodes.size());
      };

  // Line 11: main loop over validation levels. The precise arity bound
  // stops the loop after validating LHSs of max_lhs attributes; anything
  // deeper the tree speculated about is filtered from the collected cover.
  std::vector<std::pair<AttributeSet, AttributeSet>> refuted_fds;
  while (!candidates.empty() && !CancelScope::CurrentCancelled() &&
         (options_.max_lhs == 0 || vl <= options_.max_lhs)) {
    result.stats.levels = vl;
    violations.clear();
    refuted_fds.clear();

    // Line 13: candidate FDs on this level, before induction.
    int64_t total = 0;
    for (ExtendedFdTree::NodeId n : candidates) total += tree.node(n).rhs.count();

    {
      TraceSpan level_span(kObsDiscoverValidation);
      LevelValidationResult level = validate_level(candidates);
      result.stats.validations += level.validations;
      result.stats.pairs_compared += level.pairs_checked;
      result.stats.refinements += level.refinements;
      result.stats.invalidated += level.invalidated;
      violations = std::move(level.violations);
      refuted_fds = std::move(level.refuted_fds);
    }

    // Lines 19-20: induct this level's violations, most specific first. In
    // approximate mode each refuted candidate is specialized exactly — its
    // proper LHS subsets already failed at earlier levels (anti-monotone
    // removal counts), so induct(lhs, refuted_rhs) removes only the refuted
    // FDs and inserts their minimal specializations.
    {
      TraceSpan induct_span(kObsDiscoverInduction);
      SortBySizeDescending(violations);
      for (const AttributeSet& x : violations) {
        if (CancelScope::CurrentCancelled()) break;
        tree.induct(x, all - x);
      }
      for (const auto& [lhs, refuted] : refuted_fds) {
        if (CancelScope::CurrentCancelled()) break;
        tree.induct(lhs, refuted);
      }
      ObsAdd(kObsDiscoverInductions,
             static_cast<int64_t>(violations.size() + refuted_fds.size()));
    }

    // Lines 21-25: efficiency-inefficiency ratio.
    std::vector<ExtendedFdTree::NodeId> reusables;
    int64_t num_new_fds = 0;
    for (ExtendedFdTree::NodeId n : candidates) {
      const ExtendedFdTree::Node& node = tree.node(n);
      if (!node.is_leaf()) reusables.push_back(n);
      num_new_fds += node.rhs.count();
    }
    num_fds += num_new_fds;
    double efficiency =
        total > 0 ? static_cast<double>(num_new_fds) / static_cast<double>(total) : 0.0;
    int64_t higher_fds = tree.total_fd_count() - num_fds;
    double inefficiency =
        higher_fds > 0
            ? static_cast<double>(reusables.size()) / static_cast<double>(higher_fds)
            : 0.0;

    // Lines 26-27: refresh the DDM when validation is paying off.
    if (options_.enable_ddm && vl > 1 && !reusables.empty() && inefficiency > 0 &&
        efficiency / inefficiency > options_.ratio_threshold) {
      TraceSpan span(kObsDiscoverDdmUpdate);
      cl = vl;
      tree.set_controlled_level(cl);
      result.stats.refinements += ddm.update(reusables, tree, pool, par);
      ++result.stats.ddm_updates;
    }
    mem.sample();
    logical_peak = std::max(logical_peak, ddm.memory_bytes() + tree.memory_bytes());

    // Lines 28-29.
    ++vl;
    candidates = tree.level_nodes(vl);
  }

  // Line 30. A run the token stopped collects the FDs validated so far.
  result.stats.timed_out = CancelScope::CurrentCancelled();
  result.fds = tree.collect();
  if (options_.max_lhs > 0) {
    // Specializations the tree speculated past the arity bound were never
    // validated; everything at or below the bound was (levels run in order).
    std::erase_if(result.fds.fds, [&](const Fd& fd) {
      return fd.lhs.count() > options_.max_lhs;
    });
  }
  result.fds.sort();
  ObsAdd(kObsDiscoverFdtreeFds, tree.total_fd_count());
  ObsAdd(kObsDiscoverLevels, result.stats.levels);
  result.stats.seconds = timer.seconds();
  logical_peak = std::max(logical_peak, ddm.memory_bytes() + tree.memory_bytes());
  result.stats.memory_mb = std::max(
      mem.delta_peak_mb(), static_cast<double>(logical_peak) / (1024.0 * 1024.0));
  return result;
}

}  // namespace dhyfd
