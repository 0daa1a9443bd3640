#include "query/topk.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <vector>

#include "obs/obs_schema.gen.h"
#include "obs/trace.h"
#include "partition/partition_ops.h"
#include "ranking/redundancy.h"
#include "util/cancellation.h"
#include "util/timer.h"

namespace dhyfd {

namespace {

struct LevelEntry {
  AttributeSet attrs;
  AttributeSet cplus;  // TANE's C+(X): still-possible RHS attributes
  StrippedPartition partition;
  int64_t error = 0;
};

using Level = std::vector<LevelEntry>;
using LevelIndex = std::unordered_map<AttributeSet, int, AttributeSetHash>;

// Same memoized C+ store as TANE's (tane.cc): the key-pruning rule needs C+
// of sibling sets that were deleted or never generated.
class CplusStore {
 public:
  explicit CplusStore(int num_attrs) {
    memo_.emplace(AttributeSet(), AttributeSet::full(num_attrs));
  }

  void put(const AttributeSet& s, const AttributeSet& cplus) { memo_[s] = cplus; }

  AttributeSet get(const AttributeSet& s) {
    auto it = memo_.find(s);
    if (it != memo_.end()) return it->second;
    AttributeSet cplus = AttributeSet::full(AttributeSet::kCapacity);
    s.for_each([&](AttrId c) {
      AttributeSet sub = s;
      sub.reset(c);
      cplus &= get(sub);
    });
    memo_.emplace(s, cplus);
    return cplus;
  }

 private:
  std::unordered_map<AttributeSet, AttributeSet, AttributeSetHash> memo_;
};

/// The k best-ranked FDs so far. top() is the current floor: the entry any
/// new candidate must outrank to enter once the heap is full.
class TopKHeap {
 public:
  explicit TopKHeap(std::uint32_t k) : k_(k) {}

  bool full() const { return heap_.size() >= k_; }
  int64_t floor_score() const { return heap_.top().score; }

  void offer(RankedFd candidate) {
    if (!full()) {
      heap_.push(std::move(candidate));
    } else if (RankedFdBetter(candidate, heap_.top())) {
      heap_.pop();
      heap_.push(std::move(candidate));
    }
  }

  std::vector<RankedFd> take_ranked() {
    std::vector<RankedFd> out;
    out.reserve(heap_.size());
    while (!heap_.empty()) {
      out.push_back(heap_.top());
      heap_.pop();
    }
    std::reverse(out.begin(), out.end());  // worst pops first
    return out;
  }

 private:
  struct Better {
    bool operator()(const RankedFd& a, const RankedFd& b) const {
      return RankedFdBetter(a, b);
    }
  };
  // priority_queue surfaces the *last* element under the comparator, so
  // ordering by "better" keeps the worst kept FD on top.
  std::priority_queue<RankedFd, std::vector<RankedFd>, Better> heap_;
  std::uint32_t k_;
};

/// Candidate FDs still reachable from a level's surviving entries; the
/// frontier size credited to whichever bound cut the traversal.
int64_t FrontierSize(const Level& pruned) {
  int64_t n = 0;
  for (const LevelEntry& e : pruned) n += e.cplus.count();
  return n;
}

}  // namespace

QueryResult TopKDiscover(const Relation& r, const DiscoveryQuery& q) {
  Timer timer;
  QueryResult result;
  const int m = r.num_cols();
  const int64_t empty_error = r.num_rows() > 0 ? r.num_rows() - 1 : 0;
  const AttributeSet all = AttributeSet::full(m);
  const int64_t budget = ApproxRemovalBudget(q.epsilon, r.num_rows());
  const bool approx = budget > 0;
  ApproxErrorCalculator approx_calc(r);
  PartitionIntersector intersector(r.num_rows());
  TopKHeap heap(q.top_k);

  auto offer = [&](const Fd& fd, const StrippedPartition& pi_lhs) {
    FdRedundancy red = FdRedundancyFromPartition(r, fd, pi_lhs);
    heap.offer(RankedFd{fd, RedundancyCount(red, q.ranking_mode)});
  };

  // Level 1: single attributes, plus the {} -> A candidates.
  Level level;
  for (AttrId a = 0; a < m; ++a) {
    LevelEntry e;
    e.attrs = AttributeSet::single(a);
    e.cplus = all;
    e.partition = BuildAttributePartition(r, a);
    e.error = e.partition.error();
    level.push_back(std::move(e));
  }
  CplusStore cplus_store(m);
  const StrippedPartition whole = StrippedPartition::whole(r.num_rows());
  for (LevelEntry& e : level) {
    ++result.stats.validations;
    AttrId a = e.attrs.first();
    bool valid = approx ? approx_calc.removals(whole, a) <= budget
                        : e.error == empty_error;
    if (valid) {
      offer(Fd(AttributeSet(), a), whole);
      e.cplus.reset(a);
      if (!approx) e.cplus &= e.attrs;  // exact-only R - X sweep (cf. tane.cc)
    } else {
      ++result.stats.pruned_epsilon;
    }
    cplus_store.put(e.attrs, e.cplus);
  }

  // Previous level's errors and partitions; the partitions both answer the
  // approximate error tests and score valid candidates (the FD's LHS is the
  // previous-level set X - A).
  std::unordered_map<AttributeSet, int64_t, AttributeSetHash> prev_errors;
  std::unordered_map<AttributeSet, StrippedPartition, AttributeSetHash>
      prev_partitions;

  int level_num = 1;
  while (!level.empty() && !CancelScope::CurrentCancelled()) {
    TraceSpan level_span(kObsQueryLatticeLevel);
    result.stats.levels = level_num;
    if (level_num >= 2) {
      for (LevelEntry& e : level) {
        if (CancelScope::CurrentCancelled()) break;
        AttributeSet check = e.attrs & e.cplus;
        check.for_each([&](AttrId a) {
          AttributeSet x_minus_a = e.attrs;
          x_minus_a.reset(a);
          auto it = prev_errors.find(x_minus_a);
          if (it == prev_errors.end()) return;  // pruned parent
          ++result.stats.validations;
          bool valid =
              approx
                  ? approx_calc.removals(prev_partitions.at(x_minus_a), a) <=
                        budget
                  : it->second == e.error;
          if (valid) {
            offer(Fd(x_minus_a, a), prev_partitions.at(x_minus_a));
            e.cplus.reset(a);
            if (!approx) e.cplus -= all - e.attrs;
          } else {
            ++result.stats.pruned_epsilon;
          }
        });
        cplus_store.put(e.attrs, e.cplus);
      }
    }

    // Prune: empty C+, and exact keys (emitted through the key rule with an
    // empty pi_X, so they score 0 — "zero counts hint at keys").
    const bool emit_key_fds = q.max_lhs == 0 || level_num <= q.max_lhs;
    Level pruned;
    LevelIndex pruned_index;
    const StrippedPartition empty_partition;
    for (LevelEntry& e : level) {
      if (e.cplus.empty()) continue;
      if (e.error == 0) {
        if (!emit_key_fds) continue;
        AttributeSet extra = e.cplus - e.attrs;
        extra.for_each([&](AttrId a) {
          bool emit = true;
          e.attrs.for_each([&](AttrId b) {
            if (!emit) return;
            AttributeSet sibling = e.attrs;
            sibling.reset(b);
            sibling.set(a);
            if (!cplus_store.get(sibling).test(a)) emit = false;
          });
          if (emit) {
            ++result.stats.validations;
            offer(Fd(e.attrs, a), empty_partition);
          }
        });
        continue;
      }
      pruned_index.emplace(e.attrs, static_cast<int>(pruned.size()));
      pruned.push_back(std::move(e));
    }

    if (q.max_lhs > 0 && level_num > q.max_lhs) {
      result.stats.pruned_arity += FrontierSize(pruned);
      break;
    }

    // Early termination: every FD still discoverable has an LHS refining
    // some surviving entry, so its score is bounded by the largest surviving
    // support. Once that bound cannot beat the heap floor (ties lose to the
    // strictly smaller LHSs already kept), deeper levels are provably
    // irrelevant.
    if (heap.full() && !pruned.empty()) {
      int64_t bound = 0;
      for (const LevelEntry& e : pruned) {
        bound = std::max(bound, e.partition.support());
      }
      if (bound <= heap.floor_score()) {
        result.stats.pruned_bound += FrontierSize(pruned);
        result.stats.early_terminated = true;
        break;
      }
    }

    prev_errors.clear();
    for (const LevelEntry& e : pruned) prev_errors.emplace(e.attrs, e.error);

    std::unordered_map<AttributeSet, std::vector<int>, AttributeSetHash> blocks;
    for (int i = 0; i < static_cast<int>(pruned.size()); ++i) {
      AttributeSet prefix = pruned[i].attrs;
      prefix.reset(pruned[i].attrs.last());
      blocks[prefix].push_back(i);
    }

    Level next;
    for (auto& [prefix, members] : blocks) {
      (void)prefix;
      if (CancelScope::CurrentCancelled()) break;
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          if (CancelScope::CurrentCancelled()) break;
          const LevelEntry& a = pruned[members[i]];
          const LevelEntry& b = pruned[members[j]];
          AttributeSet xy = a.attrs | b.attrs;
          bool ok = true;
          AttributeSet cplus = all;
          xy.for_each([&](AttrId c) {
            if (!ok) return;
            AttributeSet sub = xy;
            sub.reset(c);
            auto it = pruned_index.find(sub);
            if (it == pruned_index.end()) {
              ok = false;
            } else {
              cplus &= pruned[it->second].cplus;
            }
          });
          if (!ok || cplus.empty()) continue;
          LevelEntry e;
          e.attrs = xy;
          e.cplus = cplus;
          intersector.intersect(a.partition, b.partition, e.partition);
          e.error = e.partition.error();
          next.push_back(std::move(e));
        }
        if (CancelScope::CurrentCancelled()) break;
      }
    }
    prev_partitions.clear();
    for (LevelEntry& e : pruned) {
      prev_partitions.emplace(e.attrs, std::move(e.partition));
    }
    level = std::move(next);
    ++level_num;
  }

  result.fds = heap.take_ranked();
  result.stats.timed_out = CancelScope::CurrentCancelled();
  result.stats.seconds = timer.seconds();
  return result;
}

}  // namespace dhyfd
