#include "algo/hyfd.h"

#include <algorithm>
#include <cstddef>
#include <memory>

#include "algo/agree_sets.h"
#include "algo/sampler.h"
#include "algo/validator.h"
#include "fdtree/extended_fd_tree.h"
#include "obs/obs_schema.gen.h"
#include "obs/trace.h"
#include "partition/partition_ops.h"
#include "util/cancellation.h"
#include "util/memory.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dhyfd {

DiscoveryResult Hyfd::discover(const Relation& r) {
  Timer timer;
  MemoryWatermark mem;
  DiscoveryResult result;
  const int m = r.num_cols();
  const AttributeSet all = AttributeSet::full(m);

  ThreadPool* pool = options_.worker_pool;
  const int par = pool != nullptr ? std::max(1, options_.parallelism) : 1;
  std::vector<std::unique_ptr<PartitionRefiner>> shard_refiners;
  for (int i = 0; i < (par > 1 ? par : 0); ++i) {
    shard_refiners.push_back(std::make_unique<PartitionRefiner>(r));
  }

  // Static single-attribute stripped partitions (HyFD's PLIs).
  std::vector<StrippedPartition> attr_partitions;
  attr_partitions.reserve(m);
  std::vector<int64_t> supports(m);
  for (AttrId a = 0; a < m; ++a) {
    attr_partitions.push_back(BuildAttributePartition(r, a));
    supports[a] = attr_partitions.back().support();
  }
  PartitionRefiner refiner(r);
  NeighborhoodSampler sampler = [&] {
    TraceSpan span(kObsDiscoverSampling);
    return NeighborhoodSampler(r, pool, par);
  }();
  size_t static_bytes = 0;
  for (const StrippedPartition& p : attr_partitions) static_bytes += p.memory_bytes();
  size_t logical_peak = 2 * static_bytes;  // PLIs + the sampler's sorted copy

  ExtendedFdTree tree(m);
  tree.init_root_fd(all);

  auto induct_sorted = [&](std::vector<AttributeSet> non_fds) {
    SortBySizeDescending(non_fds);
    for (const AttributeSet& x : non_fds) {
      if (CancelScope::CurrentCancelled()) break;
      tree.induct(x, all - x);
    }
  };

  auto sampling_phase = [&]() {
    TraceSpan span(kObsDiscoverSampling);
    for (int i = 0; i < options_.max_windows_per_phase; ++i) {
      std::vector<AttributeSet> fresh = sampler.run(sampler.window() + 1);
      result.stats.sampled_non_fds += static_cast<int64_t>(fresh.size());
      induct_sorted(std::move(fresh));
      if (sampler.last_efficiency() < options_.sampling_efficiency_threshold) break;
    }
  };

  // Initial sampling phase, then validate the root FD {} -> R directly.
  sampling_phase();
  {
    StrippedPartition whole = StrippedPartition::whole(r.num_rows());
    result.stats.validations += tree.root_rhs().count();
    ValidationOutcome v = ValidateWithPartition(r, AttributeSet(), tree.root_rhs(),
                                                whole, AttributeSet(), refiner);
    result.stats.pairs_compared += v.pairs_checked;
    result.stats.invalidated += tree.root_rhs().count() - v.valid_rhs.count();
    induct_sorted(std::move(v.violations));
  }

  // Validation phase, level by level. Violations are inducted after each
  // level; a level with too many invalidations triggers more sampling.
  int vl = 1;
  while (vl <= tree.depth() && !CancelScope::CurrentCancelled()) {
    result.stats.levels = vl;
    std::vector<ExtendedFdTree::NodeId> candidates = tree.level_nodes(vl);
    // Candidate validation shards over the pool: per-candidate work is
    // independent (reads of the static PLIs and tree paths, plus the
    // shard-private refiner), and the shard-ordered merge keeps the
    // violation sequence identical to the sequential loop's.
    auto validate_range = [&](PartitionRefiner& shard_refiner, size_t begin,
                              size_t end) {
      LevelValidationResult local;
      for (size_t i = begin; i < end; ++i) {
        if (CancelScope::CurrentCancelled()) break;
        const ExtendedFdTree::NodeId n = candidates[i];
        if (!tree.node(n).is_fd_node()) continue;
        AttributeSet lhs = tree.path_of(n);
        AttributeSet rhs = tree.node(n).rhs;
        local.validations += rhs.count();
        // HyFD always starts from a single-attribute partition: pick the
        // path attribute whose partition has the least support.
        AttrId pivot = lhs.first();
        lhs.for_each([&](AttrId a) {
          if (supports[a] < supports[pivot]) pivot = a;
        });
        ValidationOutcome v =
            ValidateWithPartition(r, lhs, rhs, attr_partitions[pivot],
                                  AttributeSet::single(pivot), shard_refiner);
        local.pairs_checked += v.pairs_checked;
        local.refinements += v.refinements;
        local.invalidated += rhs.count() - v.valid_rhs.count();
        for (AttributeSet& z : v.violations) local.violations.push_back(z);
      }
      return local;
    };
    LevelValidationResult level;
    {
      TraceSpan level_span(kObsDiscoverValidation);
      if (par > 1 && candidates.size() > 1) {
        ParFdStorageBuilder builder(
            std::min(candidates.size(), static_cast<std::size_t>(par)));
        pool->parallel_for(
            candidates.size(), par,
            [&](size_t shard, size_t begin, size_t end) {
              builder.add(shard,
                          validate_range(*shard_refiners[shard], begin, end));
            },
            kObsDiscoverShard);
        level = builder.take_merged();
      } else {
        level = validate_range(refiner, 0, candidates.size());
      }
    }
    int64_t total = level.validations;
    int64_t invalid = level.invalidated;
    result.stats.validations += level.validations;
    result.stats.pairs_compared += level.pairs_checked;
    result.stats.refinements += level.refinements;
    induct_sorted(std::move(level.violations));
    mem.sample();
    logical_peak = std::max(logical_peak, 2 * static_bytes + tree.memory_bytes());
    if (total > 0 &&
        static_cast<double>(invalid) >
            options_.validation_switch_threshold * static_cast<double>(total)) {
      sampling_phase();
    }
    ++vl;
  }

  result.stats.timed_out = CancelScope::CurrentCancelled();
  result.fds = tree.collect();
  result.fds.sort();
  result.stats.pairs_compared += sampler.pairs_compared();
  result.stats.seconds = timer.seconds();
  logical_peak = std::max(logical_peak, 2 * static_bytes + tree.memory_bytes());
  result.stats.memory_mb = std::max(
      mem.delta_peak_mb(), static_cast<double>(logical_peak) / (1024.0 * 1024.0));
  return result;
}

}  // namespace dhyfd
