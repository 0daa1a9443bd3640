#include "incr/live_profile.h"

#include <algorithm>
#include <stdexcept>

#include "algo/agree_sets.h"
#include "algo/validator.h"
#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace dhyfd {

LiveProfile::LiveProfile(const RawTable& initial, LiveProfileOptions options,
                         NullSemantics semantics)
    : options_(options), rel_(initial, semantics) {
  full_discover(nullptr);
  rerank();
}

void LiveProfile::full_discover(BatchStats* stats) {
  DiscoveryResult res = Dhyfd(options_.discovery).discover(rel_.relation());
  last_full_seconds_ = res.stats.seconds;
  incremental_seconds_ = 0;
  cover_ = res.fds;  // already singleton-RHS, sorted
  rebuild_tree_from_cover();
  if (stats) {
    stats->validations += res.stats.validations;
    stats->pairs_compared += res.stats.pairs_compared;
  }
}

void LiveProfile::rebuild_tree_from_cover() {
  // The cover is left-reduced, so the tree holds minimal FDs, as induct()
  // requires. The delete path keeps it so: it adds only FDs no tree FD
  // generalizes and drops the specializations they supersede.
  tree_ = std::make_unique<ExtendedFdTree>(rel_.num_cols());
  tree_->set_controlled_level(1);
  for (const Fd& fd : cover_.fds) tree_->add_fd(fd.lhs, fd.rhs);
}

void LiveProfile::refresh_cover() {
  cover_ = tree_->collect();
  cover_.sort();
}

bool LiveProfile::holds_on_live(
    const AttributeSet& lhs, AttrId a,
    std::unordered_map<AttributeSet, bool, AttributeSetHash>* cache,
    BatchStats* stats) {
  // {} -> a is exactly "the column has at most one live value".
  if (lhs.empty()) return rel_.live_distinct(a) <= 1;
  auto it = cache->find(lhs);
  if (it != cache->end()) return it->second;
  bool ok;
  if (!tree_->covered_rhs(lhs, AttributeSet::single(a)).empty()) {
    // Some tree FD X -> a with X subseteq lhs exists; tree FDs stay valid
    // under deletes, so lhs -> a is implied without touching the data.
    ok = true;
  } else {
    AttrId best = lhs.first();
    lhs.for_each([&](AttrId b) {
      if (rel_.live_attribute_support(b) < rel_.live_attribute_support(best)) {
        best = b;
      }
    });
    StrippedPartition base = rel_.live_attribute_partition(best);
    ++stats->validations;
    ValidationOutcome v =
        ValidateWithPartition(rel_.relation(), lhs, AttributeSet::single(a), base,
                              AttributeSet::single(best), rel_.refiner());
    stats->pairs_compared += v.pairs_checked;
    ok = v.valid_rhs.test(a);
  }
  cache->emplace(lhs, ok);
  return ok;
}

void LiveProfile::minimal_valid_subsets(
    const AttributeSet& z, AttrId a,
    std::unordered_map<AttributeSet, bool, AttributeSetHash>* cache,
    std::unordered_set<AttributeSet, AttributeSetHash>* visited,
    std::vector<AttributeSet>* out, BatchStats* stats) {
  if (!visited->insert(z).second) return;
  if (!holds_on_live(z, a, cache, stats)) return;
  // Validity is monotone in the LHS, so the minimal valid sets below z are
  // found by descending while any single-attribute removal stays valid.
  // Each lattice node is visited once per RHS attribute (visited memo);
  // invalid nodes cut their whole down-set, and the churn fallback bounds
  // how much of this work a degenerate delete stream can accumulate.
  bool any = false;
  z.for_each([&](AttrId b) {
    AttributeSet sub = z;
    sub.reset(b);
    if (holds_on_live(sub, a, cache, stats)) {
      any = true;
      minimal_valid_subsets(sub, a, cache, visited, out, stats);
    }
  });
  if (!any) out->push_back(z);
}

CoverDelta LiveProfile::apply(const UpdateBatch& batch) {
  const int m = rel_.num_cols();
  // Refuse a malformed batch before any state changes.
  for (const auto& cells : batch.inserts) {
    if (static_cast<int>(cells.size()) != m) {
      throw std::invalid_argument("insert row has " + std::to_string(cells.size()) +
                                  " cells for " + std::to_string(m) + " columns");
    }
  }
  Timer timer;
  CoverDelta delta;
  BatchStats& stats = delta.stats;
  const AttributeSet all = AttributeSet::full(m);
  const FdSet old_cover = cover_;

  // Fallback decision first (DDM-style efficiency ratio, Section IV-G
  // transplanted to maintenance): once incremental upkeep has cost more
  // than ratio x the last full run — or tombstones dominate storage — raw-
  // apply the batch and re-discover from scratch.
  std::string reason;
  if (options_.auto_rebuild) {
    if (incremental_seconds_ > options_.rebuild_cost_ratio * last_full_seconds_) {
      reason = "cost-ratio";
    } else if (rel_.tombstone_fraction() > options_.max_tombstone_fraction) {
      reason = "tombstones";
    }
  }

  if (!reason.empty()) {
    TraceSpan span(kObsIncrRebuild);
    ObsAdd(kObsIncrRebuildFallbacks);
    for (const auto& cells : batch.inserts) {
      rel_.insert_row(cells);
      ++stats.rows_inserted;
    }
    for (LiveRowId id : batch.deletes) {
      RowId d = rel_.row_of(id);
      if (d < 0) {
        ++stats.unknown_deletes;
        continue;
      }
      rel_.erase_row(d);
      ++stats.rows_deleted;
    }
    rel_.compact();
    full_discover(&stats);
    ++rebuild_count_;
    stats.rebuilt = true;
    stats.rebuild_reason = reason;
  } else {
    const Relation& r = rel_.relation();
    std::unordered_set<AttributeSet, AttributeSetHash> violated;
    auto scan_partners =
        [&](RowId row, std::unordered_set<AttributeSet, AttributeSetHash>* sets) {
          if (partner_stamp_.size() < static_cast<size_t>(rel_.storage_rows())) {
            partner_stamp_.resize(rel_.storage_rows(), 0);
          }
          if (++partner_epoch_ == 0) {
            std::fill(partner_stamp_.begin(), partner_stamp_.end(), 0);
            partner_epoch_ = 1;
          }
          for (AttrId a = 0; a < m; ++a) {
            for (RowId s : rel_.group(a, r.value(row, a))) {
              if (s == row || partner_stamp_[s] == partner_epoch_) continue;
              partner_stamp_[s] = partner_epoch_;
              ++stats.pairs_compared;
              sets->insert(r.agree_set(row, s));
            }
          }
        };

    // --- Inserts: new violations come only from pairs touching a new row.
    // A pair sharing no value has an empty agree set and refutes only the
    // root FDs, which the live distinct counts catch below.
    {
      TraceSpan insert_span(kObsIncrInserts);
      for (const auto& cells : batch.inserts) {
        RowId t = rel_.insert_row(cells);
        ++stats.rows_inserted;
        scan_partners(t, &violated);
      }
      AttributeSet root = tree_->root_rhs();
      root.for_each([&](AttrId a) {
        if (rel_.live_distinct(a) > 1) {
          auto [u, v] = rel_.distinct_pair(a);
          if (u >= 0) violated.insert(r.agree_set(u, v));
        }
      });
      if (!violated.empty()) {
        std::vector<AttributeSet> vio(violated.begin(), violated.end());
        stats.agree_sets += static_cast<int64_t>(vio.size());
        SortBySizeDescending(vio);
        for (const AttributeSet& z : vio) {
          // Skip agree sets that refute nothing by now; induct() would be a
          // semantic no-op but still traverse the tree.
          if (!tree_->covered_rhs(z, all - z).empty()) tree_->induct(z, all - z);
        }
      }
    }

    // --- Deletes: record the agree set of every destroyed pair before the
    // row leaves the indexes; these bound which FDs can newly hold.
    TraceSpan delete_span(kObsIncrDeletes);
    std::unordered_set<AttributeSet, AttributeSetHash> destroyed;
    for (LiveRowId id : batch.deletes) {
      RowId d = rel_.row_of(id);
      if (d < 0) {
        ++stats.unknown_deletes;
        continue;
      }
      scan_partners(d, &destroyed);
      rel_.erase_row(d);
      ++stats.rows_deleted;
    }

    std::vector<Fd> new_fds;
    if (!destroyed.empty()) {
      std::vector<AttributeSet> dvec(destroyed.begin(), destroyed.end());
      stats.agree_sets += static_cast<int64_t>(dvec.size());
      // A newly valid X -> A (X nonempty) had all its violating pairs die,
      // so X subseteq Z, A notin Z for some destroyed agree set Z; the per-
      // attribute-maximal destroyed sets therefore seed every candidate.
      std::vector<NonFd> seeds = NonRedundantNonFds(std::move(dvec), m);
      for (AttrId a = 0; a < m; ++a) {
        std::unordered_map<AttributeSet, bool, AttributeSetHash> cache;
        std::unordered_set<AttributeSet, AttributeSetHash> visited;
        std::vector<AttributeSet> mins;
        for (const NonFd& seed : seeds) {
          if (seed.rhs.test(a)) {
            minimal_valid_subsets(seed.lhs, a, &cache, &visited, &mins, &stats);
          }
        }
        for (const AttributeSet& lhs : mins) {
          // An emitted set has no valid strict subset, so a covering tree
          // FD can only be lhs -> a itself — already in the cover.
          if (tree_->covered_rhs(lhs, AttributeSet::single(a)).empty()) {
            new_fds.emplace_back(lhs, a);
          }
        }
      }
    }
    // {} -> A regains validity exactly when the column collapses to one
    // live value; its witnesses may have been zero-agreement pairs the
    // group scan cannot see, so check the distinct counts directly.
    if (stats.rows_deleted > 0) {
      for (AttrId a = 0; a < m; ++a) {
        if (!tree_->root_rhs().test(a) && rel_.live_distinct(a) <= 1) {
          Fd root_fd(AttributeSet(), a);
          if (std::find(new_fds.begin(), new_fds.end(), root_fd) == new_fds.end()) {
            new_fds.push_back(root_fd);
          }
        }
      }
    }

    delete_span.finish();
    if (!new_fds.empty()) {
      // Install the newly minimal FDs and prune the specializations they
      // supersede, then rebuild the tree to match.
      FdSet updated = tree_->collect();
      std::vector<Fd> kept;
      kept.reserve(updated.fds.size() + new_fds.size());
      for (const Fd& fd : updated.fds) {
        bool superseded = false;
        for (const Fd& nf : new_fds) {
          if (nf.rhs == fd.rhs && nf.lhs != fd.lhs && nf.lhs.is_subset_of(fd.lhs)) {
            superseded = true;
            break;
          }
        }
        if (!superseded) kept.push_back(fd);
      }
      for (const Fd& nf : new_fds) kept.push_back(nf);
      cover_.fds = std::move(kept);
      cover_.sort();
      rebuild_tree_from_cover();
    }
    refresh_cover();
  }
  rerank();
  stats.fds_reranked = cover_.size();
  // The rank pass counts toward incremental upkeep; a rebuild batch resets
  // the account instead.
  if (!stats.rebuilt) incremental_seconds_ += timer.seconds();

  delta.added = cover_.minus(old_cover);
  delta.removed = old_cover.minus(cover_);
  stats.fds_added = delta.added.size();
  stats.fds_removed = delta.removed.size();
  stats.seconds = timer.seconds();
  ++batches_applied_;
  ObsAdd(kObsIncrPairsCompared, stats.pairs_compared);
  ObsAdd(kObsIncrAgreeSets, stats.agree_sets);
  ObsAdd(kObsIncrValidations, stats.validations);
  ObsAdd(kObsIncrFdsReranked, stats.fds_reranked);
  return delta;
}

void LiveProfile::force_rebuild() {
  rel_.compact();
  full_discover(nullptr);
  ++rebuild_count_;
  rerank();
}

void LiveProfile::rerank() {
  TraceSpan span(kObsIncrRerank);
  const StrippedPartition live = rel_.whole_live_cluster();
  ranking_ = SortByRedundancy(
      ComputeCoverRedundancy(rel_.relation(), cover_, nullptr, 1, &live).per_fd,
      RedundancyMode::kExcludingNullRhs);
}

}  // namespace dhyfd
