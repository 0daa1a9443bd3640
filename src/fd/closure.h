#ifndef DHYFD_FD_CLOSURE_H_
#define DHYFD_FD_CLOSURE_H_

#include <cstdint>
#include <vector>

#include "fd/fd_set.h"

namespace dhyfd {

/// Attribute closure over a fixed FD set, word-parallel over the FDs.
///
/// For every attribute a the engine keeps one bitset over the FDs: "the LHS
/// does not contain a". An FD can fire once its LHS lies inside the running
/// closure C, so the fireable FDs are the enabled mask ANDed with the
/// bitsets of every attribute outside C, 64 FDs per word. One fixpoint step
/// computes that mask, ORs in the RHS of each newly fireable FD, and repeats
/// until C stops growing. The canonical-cover computation calls implies()
/// once per FD, so this is the inner loop of Table III's "Time" column.
///
/// The AND runs attribute by attribute, most frequent LHS attribute first,
/// and drops words that reach zero from the rest of the step. FDs are
/// stored in bit slots sorted by their LHS in that attribute order, so FDs
/// sharing frequent attributes share words and whole words drop out early.
///
/// Every FD starts enabled; disable(i) hides FD i (its index in the FdSet)
/// from later calls. Scratch words are sized at construction, so closure()
/// and implies() allocate nothing. One engine must not be used by two
/// threads at once.
class ClosureEngine {
 public:
  /// `num_attrs` is the schema width; the engine sizes its rows from the
  /// attributes that occur in some LHS, so it needs no other bound.
  ClosureEngine(const FdSet& fds, int num_attrs);

  /// X+ under the enabled FDs.
  AttributeSet closure(const AttributeSet& x) const;

  /// True if the enabled FDs imply lhs -> rhs. Stops as soon as the running
  /// closure contains rhs, so it is much cheaper than a full closure on
  /// large covers.
  bool implies(const AttributeSet& lhs, const AttributeSet& rhs) const;

  void enable(int i) { enabled_[slot_[i] >> 6] |= bit(slot_[i]); }
  void disable(int i) { enabled_[slot_[i] >> 6] &= ~bit(slot_[i]); }
  bool enabled(int i) const { return (enabled_[slot_[i] >> 6] & bit(slot_[i])) != 0; }

  int num_fds() const { return static_cast<int>(rhs_.size()); }

 private:
  static uint64_t bit(uint32_t slot) { return uint64_t{1} << (slot & 63); }

  /// The fixpoint; returns early once `target` (if non-null) is reached.
  AttributeSet run(const AttributeSet& x, const AttributeSet* target) const;

  size_t words_;                    // 64-slot words per bitset
  std::vector<uint32_t> slot_;      // FdSet index -> bit slot
  std::vector<AttributeSet> rhs_;   // RHS per slot
  std::vector<AttrId> attr_order_;  // LHS attributes, most frequent first
  // Row r (words_ words) has slot s set iff that FD's LHS does not contain
  // attr_order_[r].
  std::vector<uint64_t> no_lhs_;
  std::vector<uint64_t> enabled_;
  // Per step: the words still nonzero and their fireable bits, compacted.
  mutable std::vector<uint32_t> live_words_;
  mutable std::vector<uint64_t> fireable_;
  mutable std::vector<uint64_t> fired_;  // per word, slots already applied
};

/// One-shot convenience wrappers.
AttributeSet Closure(const FdSet& fds, const AttributeSet& x, int num_attrs);
bool Implies(const FdSet& fds, const Fd& fd, int num_attrs);

/// True if the two FD sets imply each other (are covers of the same set).
bool CoversEquivalent(const FdSet& a, const FdSet& b, int num_attrs);

}  // namespace dhyfd

#endif  // DHYFD_FD_CLOSURE_H_
