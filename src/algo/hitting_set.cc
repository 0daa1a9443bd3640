#include "algo/hitting_set.h"

#include <algorithm>

#include "util/cancellation.h"

namespace dhyfd {

bool HitsAll(const std::vector<AttributeSet>& family, const AttributeSet& candidate) {
  for (const AttributeSet& s : family) {
    if (!s.intersects(candidate)) return false;
  }
  return true;
}

std::vector<AttributeSet> MinimalHittingSets(const std::vector<AttributeSet>& family,
                                             size_t max_results) {
  // An empty set in the family cannot be hit: no transversal exists.
  for (const AttributeSet& s : family) {
    if (s.empty()) return {};
  }

  // Berge's algorithm: fold the sets in one at a time, keeping the current
  // minimal transversals. Processing larger sets last keeps intermediate
  // families small in practice.
  std::vector<AttributeSet> sorted = family;
  std::sort(sorted.begin(), sorted.end(),
            [](const AttributeSet& a, const AttributeSet& b) {
              return a.count() < b.count();
            });

  std::vector<AttributeSet> transversals = {AttributeSet()};
  for (const AttributeSet& s : sorted) {
    if (CancelScope::CurrentCancelled()) break;
    std::vector<AttributeSet> kept;
    std::vector<AttributeSet> extended;
    for (const AttributeSet& t : transversals) {
      if (t.intersects(s)) {
        kept.push_back(t);
      } else {
        s.for_each([&](AttrId a) {
          AttributeSet candidate = t;
          candidate.set(a);
          extended.push_back(candidate);
        });
      }
    }
    // A kept transversal is still minimal. An extended candidate survives
    // only if no kept transversal is a subset of it (extended candidates
    // cannot dominate kept ones, and equal-new-attr extensions of distinct
    // minimal t's cannot contain each other unless via kept-check).
    for (const AttributeSet& cand : extended) {
      if (CancelScope::CurrentCancelled()) break;
      bool dominated = false;
      for (const AttributeSet& t : kept) {
        if (t.is_subset_of(cand)) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      for (const AttributeSet& other : extended) {
        if (other != cand && other.is_subset_of(cand)) {
          // Strict subset, or equal-set duplicate resolved by keeping the
          // first occurrence (pointer order).
          if (other == cand) continue;
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      // Deduplicate equal candidates.
      bool duplicate = false;
      for (const AttributeSet& t : kept) {
        if (t == cand) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) kept.push_back(cand);
    }
    transversals = std::move(kept);
    if (max_results > 0 && transversals.size() > 4 * max_results) {
      // Soft cap mid-fold to bound blow-up; exactness is lost beyond the cap.
      transversals.resize(4 * max_results);
    }
  }
  if (max_results > 0 && transversals.size() > max_results) {
    transversals.resize(max_results);
  }
  return transversals;
}

}  // namespace dhyfd
