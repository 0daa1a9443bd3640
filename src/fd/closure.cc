#include "fd/closure.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

namespace dhyfd {

ClosureEngine::ClosureEngine(const FdSet& fds, int /*num_attrs*/)
    : words_((fds.fds.size() + 63) / 64) {
  const size_t n = fds.fds.size();
  std::array<int64_t, AttributeSet::kCapacity> frequency{};
  AttributeSet lhs_attrs;
  for (const Fd& fd : fds.fds) {
    fd.lhs.for_each([&](AttrId a) { ++frequency[a]; });
    lhs_attrs |= fd.lhs;
  }
  lhs_attrs.for_each([&](AttrId a) { attr_order_.push_back(a); });
  std::stable_sort(attr_order_.begin(), attr_order_.end(),
                   [&](AttrId a, AttrId b) { return frequency[a] > frequency[b]; });

  std::array<int, AttributeSet::kCapacity> rank{};
  for (size_t r = 0; r < attr_order_.size(); ++r) rank[attr_order_[r]] = static_cast<int>(r);

  // Slot order: each LHS as a bitset whose highest bit is the most frequent
  // attribute, descending, so AttributeSet's word-wise order groups FDs by
  // the frequent attributes they share.
  std::vector<AttributeSet> key(n);
  for (size_t i = 0; i < n; ++i) {
    fds.fds[i].lhs.for_each([&](AttrId a) { key[i].set(AttributeSet::kCapacity - 1 - rank[a]); });
  }
  std::vector<uint32_t> by_slot(n);
  std::iota(by_slot.begin(), by_slot.end(), uint32_t{0});
  std::stable_sort(by_slot.begin(), by_slot.end(),
                   [&](uint32_t a, uint32_t b) { return key[b] < key[a]; });
  slot_.resize(n);
  rhs_.resize(n);
  for (uint32_t s = 0; s < n; ++s) {
    slot_[by_slot[s]] = s;
    rhs_[s] = fds.fds[by_slot[s]].rhs;
  }

  // Every slot bit starts set in the enabled mask and in each row; the tail
  // bits of the last word stay 0, so they never become fireable.
  enabled_.assign(words_, ~uint64_t{0});
  if (n % 64 != 0) enabled_.back() = (uint64_t{1} << (n % 64)) - 1;
  no_lhs_.resize(attr_order_.size() * words_);
  for (size_t r = 0; r < attr_order_.size(); ++r) {
    std::copy(enabled_.begin(), enabled_.end(), no_lhs_.begin() + r * words_);
  }
  for (size_t i = 0; i < n; ++i) {
    fds.fds[i].lhs.for_each([&](AttrId a) {
      no_lhs_[rank[a] * words_ + (slot_[i] >> 6)] &= ~bit(slot_[i]);
    });
  }
  live_words_.resize(words_);
  fireable_.resize(words_);
  fired_.resize(words_);
}

AttributeSet ClosureEngine::run(const AttributeSet& x, const AttributeSet* target) const {
  AttributeSet result = x;
  if (target != nullptr && target->is_subset_of(result)) return result;
  std::fill(fired_.begin(), fired_.end(), 0);
  for (;;) {
    // Fireable = enabled and no LHS attribute outside the running closure.
    // Only nonzero words are kept: (live_words_[k], fireable_[k]).
    size_t live = 0;
    for (size_t w = 0; w < words_; ++w) {
      live_words_[live] = static_cast<uint32_t>(w);
      fireable_[live] = enabled_[w];
      live += enabled_[w] != 0;
    }
    for (size_t r = 0; r < attr_order_.size() && live != 0; ++r) {
      if (result.test(attr_order_[r])) continue;
      const uint64_t* row = no_lhs_.data() + r * words_;
      size_t kept = 0;
      for (size_t k = 0; k < live; ++k) {
        const uint32_t w = live_words_[k];
        const uint64_t bits = fireable_[k] & row[w];
        live_words_[kept] = w;
        fireable_[kept] = bits;
        kept += bits != 0;
      }
      live = kept;
    }
    const AttributeSet before = result;
    for (size_t k = 0; k < live; ++k) {
      const uint32_t w = live_words_[k];
      uint64_t fresh = fireable_[k] & ~fired_[w];
      if (fresh == 0) continue;
      fired_[w] |= fresh;
      for (; fresh != 0; fresh &= fresh - 1) {
        result |= rhs_[w * 64 + std::countr_zero(fresh)];
      }
      if (target != nullptr && target->is_subset_of(result)) return result;
    }
    // The fireable set depends only on the closure: once it stops growing,
    // no further FD can fire.
    if (result == before) return result;
  }
}

AttributeSet ClosureEngine::closure(const AttributeSet& x) const {
  return run(x, nullptr);
}

bool ClosureEngine::implies(const AttributeSet& lhs, const AttributeSet& rhs) const {
  return rhs.is_subset_of(run(lhs, &rhs));
}

AttributeSet Closure(const FdSet& fds, const AttributeSet& x, int num_attrs) {
  return ClosureEngine(fds, num_attrs).closure(x);
}

bool Implies(const FdSet& fds, const Fd& fd, int num_attrs) {
  return ClosureEngine(fds, num_attrs).implies(fd.lhs, fd.rhs);
}

bool CoversEquivalent(const FdSet& a, const FdSet& b, int num_attrs) {
  ClosureEngine ea(a, num_attrs), eb(b, num_attrs);
  for (const Fd& fd : a.fds) {
    if (!eb.implies(fd.lhs, fd.rhs)) return false;
  }
  for (const Fd& fd : b.fds) {
    if (!ea.implies(fd.lhs, fd.rhs)) return false;
  }
  return true;
}

}  // namespace dhyfd
