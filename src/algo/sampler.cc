#include "algo/sampler.h"

#include <algorithm>

#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "util/thread_pool.h"

namespace dhyfd {

NeighborhoodSampler::NeighborhoodSampler(
    const Relation& r, const std::vector<StrippedPartition>& attr_partitions,
    ThreadPool* pool, int parallelism)
    : num_cols_(r.num_cols()),
      pool_(pool),
      parallelism_(parallelism),
      rows_(static_cast<size_t>(r.num_rows()) * r.num_cols()) {
  const int m = num_cols_;
  for (AttrId c = 0; c < m; ++c) {
    const std::vector<ValueId>& column = r.column(c);
    for (RowId t = 0; t < r.num_rows(); ++t) {
      rows_[static_cast<size_t>(t) * m + c] = column[t];
    }
  }
  sorted_.resize(m);
  // Per-attribute neighborhood sort; attributes are independent, so shards
  // write disjoint sorted_[a] slots.
  auto sort_attribute = [&](AttrId a) {
    sorted_[a] = attr_partitions[a];
    for (size_t ci = 0; ci < static_cast<size_t>(sorted_[a].size()); ++ci) {
      std::span<RowId> cluster = sorted_[a].mutable_cluster(ci);
      // Sort by the remaining attributes, wrapping around from a+1, so the
      // neighborhood ordering differs per attribute and covers more pairs.
      std::sort(cluster.begin(), cluster.end(), [&](RowId x, RowId y) {
        const ValueId* rx = row(x);
        const ValueId* ry = row(y);
        for (int c = a + 1; c < m; ++c) {
          if (rx[c] != ry[c]) return rx[c] < ry[c];
        }
        for (int c = 0; c < a; ++c) {
          if (rx[c] != ry[c]) return rx[c] < ry[c];
        }
        return x < y;
      });
    }
  };
  if (pool_ != nullptr && parallelism_ > 1 && m > 1) {
    pool_->run_shards(
        parallelism_, m, [&](size_t a) { sort_attribute(static_cast<AttrId>(a)); },
        kObsDiscoverShard);
  } else {
    for (AttrId a = 0; a < m; ++a) sort_attribute(a);
  }
}

int64_t NeighborhoodSampler::collect_attribute(AttrId a, int window,
                                               std::vector<AttributeSet>& out) const {
  const int m = num_cols_;
  // The sets already in this bucket; most compared pairs repeat one of
  // them or a set in seen_.
  std::unordered_set<AttributeSet, AttributeSetHash> local;
  int64_t pairs = 0;
  for (ClusterView cluster : sorted_[a].clusters()) {
    if (static_cast<int>(cluster.size()) <= window) continue;
    for (size_t i = 0; i + window < cluster.size(); ++i) {
      const ValueId* s = row(cluster[i]);
      const ValueId* t = row(cluster[i + window]);
      ++pairs;
      AttributeSet ag;
      for (int c = 0; c < m; ++c) {
        if (s[c] == t[c]) ag.set(c);
      }
      if (ag.count() == m) continue;  // duplicate rows imply no non-FD
      if (seen_.contains(ag) || !local.insert(ag).second) continue;
      out.push_back(ag);
    }
  }
  return pairs;
}

std::vector<AttributeSet> NeighborhoodSampler::run(int window) {
  const int m = num_cols_;
  // Agree-set induction fans out per attribute; each bucket already drops
  // what `seen_` holds and its own repeats, and the final dedup stays on the
  // calling thread, replayed in attribute order, so `fresh` (and the seen_
  // state feeding every later run) is independent of shard timing.
  std::vector<std::vector<AttributeSet>> per_attr(m);
  std::vector<int64_t> per_attr_comparisons(m, 0);
  if (pool_ != nullptr && parallelism_ > 1 && m > 1) {
    pool_->run_shards(
        parallelism_, m,
        [&](size_t a) {
          per_attr_comparisons[a] =
              collect_attribute(static_cast<AttrId>(a), window, per_attr[a]);
        },
        kObsDiscoverShard);
  } else {
    for (AttrId a = 0; a < m; ++a) {
      per_attr_comparisons[a] = collect_attribute(a, window, per_attr[a]);
    }
  }

  std::vector<AttributeSet> fresh;
  int64_t comparisons = 0;
  for (int a = 0; a < m; ++a) {
    comparisons += per_attr_comparisons[a];
    for (AttributeSet& ag : per_attr[a]) {
      if (seen_.insert(ag).second) fresh.push_back(ag);
    }
  }
  pairs_compared_ += comparisons;
  last_efficiency_ =
      comparisons == 0 ? 0.0
                       : static_cast<double>(fresh.size()) / static_cast<double>(comparisons);
  window_ = std::max(window_, window);
  ObsAdd(kObsDiscoverSamplerRounds);
  ObsAdd(kObsDiscoverSamplerPairs, comparisons);
  ObsAdd(kObsDiscoverSamplerNewAgreeSets, static_cast<int64_t>(fresh.size()));
  return fresh;
}

std::vector<AttributeSet> NeighborhoodSampler::initial(int max_window) {
  std::vector<AttributeSet> all;
  for (int w = 1; w <= max_window; ++w) {
    std::vector<AttributeSet> fresh = run(w);
    all.insert(all.end(), fresh.begin(), fresh.end());
  }
  return all;
}

}  // namespace dhyfd
