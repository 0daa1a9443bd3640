#include "algo/sampler.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace dhyfd {

namespace {

// Arena positions per sampling shard. A constant, so shard boundaries never
// depend on the degree of parallelism.
constexpr size_t kShardPositions = 16384;

// Positions between the row the agree-set loop reads and the row it
// prefetches.
constexpr size_t kPrefetchDistance = 16;

// Rows per transposition tile: a tile of row-major codes stays in L1 while
// every column writes into it.
constexpr size_t kTransposeRows = 256;

// A set of agree sets in one open-addressed, linearly probed table of
// power-of-two size: a lookup costs one hash, one multiply-shift and
// mostly one compare. It never holds the set of all attributes, which
// marks empty slots.
class AgreeSetTable {
 public:
  /// Inserts `s`; false if it was already present.
  bool insert(const AttributeSet& s) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = slot(s);; i = (i + 1) & mask) {
      if (slots_[i] == s) return false;
      if (slots_[i] == empty()) {
        slots_[i] = s;
        ++size_;
        return true;
      }
    }
  }

 private:
  static AttributeSet empty() { return AttributeSet::full(AttributeSet::kCapacity); }

  // Fibonacci hashing: the top bits of the product mix every input bit.
  size_t slot(const AttributeSet& s) const {
    return static_cast<size_t>((static_cast<uint64_t>(s.hash()) * 0x9E3779B97F4A7C15ull) >>
                               (64 - log2_slots_));
  }

  void grow() {
    std::vector<AttributeSet> old(std::max<size_t>(16, 2 * slots_.size()), empty());
    old.swap(slots_);
    log2_slots_ = std::countr_zero(slots_.size());
    size_ = 0;
    for (const AttributeSet& s : old) {
      if (s != empty()) insert(s);
    }
  }

  std::vector<AttributeSet> slots_;
  int log2_slots_ = 0;
  size_t size_ = 0;
};

}  // namespace

NeighborhoodSampler::NeighborhoodSampler(const Relation& r, ThreadPool* pool,
                                         int parallelism)
    : num_cols_(r.num_cols()),
      pool_(pool),
      parallelism_(parallelism),
      sorted_(r.num_cols()) {
  const int m = num_cols_;
  const size_t n = static_cast<size_t>(r.num_rows());
  if (CancelScope::CurrentCancelled()) return;
  rows_.resize(n * m);
  auto transpose = [&](size_t begin, size_t end) {
    for (size_t tile = begin; tile < end; tile += kTransposeRows) {
      const size_t tile_end = std::min(end, tile + kTransposeRows);
      for (AttrId c = 0; c < m; ++c) {
        const ValueId* column = r.column(c).data();
        for (size_t t = tile; t < tile_end; ++t) rows_[t * m + c] = column[t];
      }
    }
  };
  if (pool_ != nullptr && parallelism_ > 1 && n > kTransposeRows) {
    pool_->parallel_for(
        n, parallelism_, [&](size_t, size_t begin, size_t end) { transpose(begin, end); },
        kObsDiscoverShard);
  } else {
    transpose(0, n);
  }

  // `order` holds O_{s+1}; a stable counting pass by column s turns it into
  // O_s. Afterwards bucket[v] is the end of code v's run in `order`.
  std::vector<RowId> order(n);
  std::vector<RowId> next(n);
  std::iota(order.begin(), order.end(), RowId{0});
  std::vector<uint32_t> bucket;
  auto pass = [&](AttrId s) {
    const std::vector<ValueId>& col = r.column(s);
    bucket.assign(static_cast<size_t>(std::max<ValueId>(r.domain_size(s), 0)) + 1, 0);
    for (size_t t = 0; t < n; ++t) ++bucket[col[t] + 1];
    std::partial_sum(bucket.begin(), bucket.end(), bucket.begin());
    for (RowId t : order) next[bucket[col[t]]++] = t;
    order.swap(next);
  };
  // Attribute a's clusters are the runs of length >= 2 in O_a.
  auto extract = [&](AttrId a) {
    const size_t domain = bucket.size() - 1;
    size_t kept_rows = 0;
    size_t kept_clusters = 0;
    for (size_t v = 0; v < domain; ++v) {
      const uint32_t size = bucket[v] - (v == 0 ? 0 : bucket[v - 1]);
      if (size >= 2) {
        kept_rows += size;
        ++kept_clusters;
      }
    }
    sorted_[a].reserve(kept_rows, kept_clusters);
    for (size_t v = 0; v < domain; ++v) {
      const uint32_t begin = v == 0 ? 0 : bucket[v - 1];
      if (bucket[v] - begin >= 2) {
        sorted_[a].add_cluster(ClusterView(order.data() + begin, bucket[v] - begin));
      }
    }
  };
  // A stopped build returns before the shards exist, so a partial sampler
  // compares nothing.
  for (AttrId s = m - 1; s >= 0; --s) {
    if (CancelScope::CurrentCancelled()) return;
    pass(s);
  }
  if (m > 0) extract(0);
  for (AttrId s = m - 1; s >= 1; --s) {
    if (CancelScope::CurrentCancelled()) return;
    pass(s);
    extract(s);
  }

  for (AttrId a = 0; a < m; ++a) {
    const StrippedPartition& p = sorted_[a];
    const RowId* arena = p.row_arena().data();
    // Every arena position lies in exactly one cluster, so walking the
    // clusters in order finds the one holding each chunk's first position.
    size_t begin = 0;
    for (size_t ci = 0; ci < static_cast<size_t>(p.size()); ++ci) {
      const size_t cluster_end = static_cast<size_t>(p.cluster(ci).data() - arena) +
                                 p.cluster(ci).size();
      for (; begin < cluster_end; begin += kShardPositions) {
        shards_.push_back(Shard{a, ci, begin,
                                std::min(begin + kShardPositions,
                                         static_cast<size_t>(p.support()))});
      }
    }
  }
}

std::vector<AttributeSet> NeighborhoodSampler::run(int window) {
  return sample(window, window);
}

std::vector<AttributeSet> NeighborhoodSampler::initial(int max_window) {
  return sample(1, max_window);
}

std::vector<AttributeSet> NeighborhoodSampler::sample(int first_window, int last_window) {
  if (last_window < first_window) return {};
  const int m = num_cols_;
  const size_t first = static_cast<size_t>(first_window);
  const size_t windows = static_cast<size_t>(last_window - first_window + 1);
  // Bucket and pair count of shard s at window first_window + k sit at
  // s * windows + k.
  std::vector<std::vector<AttributeSet>> buckets(shards_.size() * windows);
  std::vector<int64_t> pairs(shards_.size() * windows, 0);
  auto collect = [&](size_t s) {
    if (CancelScope::CurrentCancelled()) return;
    const Shard& shard = shards_[s];
    const StrippedPartition& p = sorted_[shard.attr];
    const ClusterView arena = p.row_arena();
    // Filled locally and moved out at the end: neighboring shards' slots
    // share cache lines.
    std::vector<std::vector<AttributeSet>> bucket(windows);
    std::vector<int64_t> bucket_pairs(windows, 0);
    // Per window: the sets already in its bucket or in seen_, and the
    // previous pair's set (an equal neighbor is a repeat either way).
    std::vector<AgreeSetTable> local(windows);
    std::vector<AttributeSet> previous(windows, AttributeSet::full(m));
    for (size_t ci = shard.first_cluster; ci < static_cast<size_t>(p.size()); ++ci) {
      const ClusterView cluster = p.cluster(ci);
      const size_t cluster_begin = static_cast<size_t>(cluster.data() - arena.data());
      const size_t cluster_end = cluster_begin + cluster.size();
      if (cluster_begin >= shard.end) break;
      if (cluster.size() <= first) continue;
      // Every position up to i_end has a partner at distance first_window.
      for (size_t i = std::max(cluster_begin, shard.begin),
                  i_end = std::min(cluster_end - first, shard.end);
           i < i_end; ++i) {
        if (i + kPrefetchDistance < arena.size()) prefetch_row(arena[i + kPrefetchDistance]);
        const ValueId* x = row(arena[i]);
        const size_t reach =
            std::min(cluster_end - 1 - i, static_cast<size_t>(last_window));
        for (size_t w = first; w <= reach; ++w) {
          const size_t k = w - first;
          const ValueId* y = row(arena[i + w]);
          ++bucket_pairs[k];
          const AttributeSet ag =
              AttributeSet::where(m, [&](AttrId c) { return x[c] == y[c]; });
          if (ag == previous[k]) continue;
          previous[k] = ag;
          // Duplicate rows imply no non-FD.
          if (ag.count() == m || !local[k].insert(ag) || seen_.contains(ag)) continue;
          bucket[k].push_back(ag);
        }
      }
    }
    for (size_t k = 0; k < windows; ++k) {
      buckets[s * windows + k] = std::move(bucket[k]);
      pairs[s * windows + k] = bucket_pairs[k];
    }
  };
  if (pool_ != nullptr && parallelism_ > 1 && shards_.size() > 1) {
    pool_->run_shards(parallelism_, shards_.size(), collect, kObsDiscoverShard);
  } else {
    for (size_t s = 0; s < shards_.size(); ++s) collect(s);
  }

  // Replay window-major, then in shard order: the order a sequential loop
  // over windows, attributes, clusters and pairs visits the agree sets.
  std::vector<AttributeSet> fresh;
  for (size_t k = 0; k < windows; ++k) {
    const size_t before = fresh.size();
    int64_t comparisons = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      comparisons += pairs[s * windows + k];
      for (const AttributeSet& ag : buckets[s * windows + k]) {
        if (seen_.insert(ag).second) fresh.push_back(ag);
      }
    }
    const int64_t found = static_cast<int64_t>(fresh.size() - before);
    pairs_compared_ += comparisons;
    last_efficiency_ = comparisons == 0 ? 0.0
                                        : static_cast<double>(found) /
                                              static_cast<double>(comparisons);
    ObsAdd(kObsDiscoverSamplerRounds);
    ObsAdd(kObsDiscoverSamplerPairs, comparisons);
    ObsAdd(kObsDiscoverSamplerNewAgreeSets, found);
  }
  window_ = std::max(window_, last_window);
  return fresh;
}

}  // namespace dhyfd
