#ifndef DHYFD_UTIL_ATTRIBUTE_SET_H_
#define DHYFD_UTIL_ATTRIBUTE_SET_H_

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace dhyfd {

/// Identifies a column (attribute) of a relation schema. Attributes are the
/// integers 0..n-1 in schema order, matching the paper's convention that a
/// total order on the schema lets positive integers identify columns.
using AttrId = int;

/// A set of attributes, represented as a fixed-capacity 256-bit bitset.
///
/// 256 bits comfortably covers every schema in the paper's benchmark suite
/// (the widest, flight, has 109 columns). All lattice operations used by the
/// discovery algorithms (subset tests, unions, iteration in ascending
/// attribute order) are word-parallel.
class AttributeSet {
 public:
  static constexpr int kCapacity = 256;
  static constexpr int kWords = kCapacity / 64;

  constexpr AttributeSet() : words_{} {}

  AttributeSet(std::initializer_list<AttrId> attrs) : words_{} {
    for (AttrId a : attrs) set(a);
  }

  /// Returns the set {0, 1, ..., n-1}, i.e., a full schema of n attributes.
  static AttributeSet full(int n) {
    AttributeSet s;
    for (int w = 0; w < kWords; ++w) {
      if (n >= (w + 1) * 64) {
        s.words_[w] = ~uint64_t{0};
      } else if (n > w * 64) {
        s.words_[w] = (uint64_t{1} << (n - w * 64)) - 1;
      }
    }
    return s;
  }

  /// Returns the singleton set {a}.
  static AttributeSet single(AttrId a) {
    AttributeSet s;
    s.set(a);
    return s;
  }

  /// The set {a < n : pred(a)}. Each bit is or-ed in without branching on
  /// pred, which keeps hot loops over unpredictable tests (agree sets)
  /// free of mispredictions.
  template <typename Pred>
  static AttributeSet where(int n, Pred&& pred) {
    AttributeSet s;
    for (int w = 0; w * 64 < n; ++w) {
      // One word at a time in a register: no read-modify-write per bit.
      uint64_t bits = 0;
      const int end = n < (w + 1) * 64 ? n : (w + 1) * 64;
      for (AttrId a = w * 64; a < end; ++a) {
        bits |= static_cast<uint64_t>(static_cast<bool>(pred(a))) << (a & 63);
      }
      s.words_[w] = bits;
    }
    return s;
  }

  void set(AttrId a) { words_[word(a)] |= bit(a); }
  void reset(AttrId a) { words_[word(a)] &= ~bit(a); }
  bool test(AttrId a) const { return (words_[word(a)] & bit(a)) != 0; }
  void clear() { words_.fill(0); }

  bool empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// Number of attributes in the set.
  int count() const {
    int c = 0;
    for (uint64_t w : words_) c += std::popcount(w);
    return c;
  }

  /// Number of attributes in the set below a: a's rank among the members.
  int count_below(AttrId a) const {
    int c = 0;
    for (int w = 0; w < word(a); ++w) c += std::popcount(words_[w]);
    return c + std::popcount(words_[word(a)] & (bit(a) - 1));
  }

  /// Smallest attribute in the set, or -1 if empty.
  AttrId first() const {
    for (int w = 0; w < kWords; ++w) {
      if (words_[w] != 0) return w * 64 + std::countr_zero(words_[w]);
    }
    return -1;
  }

  /// Largest attribute in the set, or -1 if empty.
  AttrId last() const {
    for (int w = kWords - 1; w >= 0; --w) {
      if (words_[w] != 0) return w * 64 + 63 - std::countl_zero(words_[w]);
    }
    return -1;
  }

  /// Smallest attribute strictly greater than a, or -1 if none.
  AttrId next(AttrId a) const {
    if (a + 1 >= kCapacity) return -1;
    int w = word(a + 1);
    uint64_t cur = words_[w] & ~((bit(a + 1)) - 1);
    if (cur != 0) return w * 64 + std::countr_zero(cur);
    for (++w; w < kWords; ++w) {
      if (words_[w] != 0) return w * 64 + std::countr_zero(words_[w]);
    }
    return -1;
  }

  bool is_subset_of(const AttributeSet& other) const {
    for (int w = 0; w < kWords; ++w) {
      if ((words_[w] & ~other.words_[w]) != 0) return false;
    }
    return true;
  }

  bool intersects(const AttributeSet& other) const {
    for (int w = 0; w < kWords; ++w) {
      if ((words_[w] & other.words_[w]) != 0) return true;
    }
    return false;
  }

  AttributeSet operator|(const AttributeSet& o) const {
    AttributeSet r;
    for (int w = 0; w < kWords; ++w) r.words_[w] = words_[w] | o.words_[w];
    return r;
  }

  AttributeSet operator&(const AttributeSet& o) const {
    AttributeSet r;
    for (int w = 0; w < kWords; ++w) r.words_[w] = words_[w] & o.words_[w];
    return r;
  }

  /// Set difference: attributes in this set but not in o.
  AttributeSet operator-(const AttributeSet& o) const {
    AttributeSet r;
    for (int w = 0; w < kWords; ++w) r.words_[w] = words_[w] & ~o.words_[w];
    return r;
  }

  AttributeSet& operator|=(const AttributeSet& o) {
    for (int w = 0; w < kWords; ++w) words_[w] |= o.words_[w];
    return *this;
  }

  AttributeSet& operator&=(const AttributeSet& o) {
    for (int w = 0; w < kWords; ++w) words_[w] &= o.words_[w];
    return *this;
  }

  AttributeSet& operator-=(const AttributeSet& o) {
    for (int w = 0; w < kWords; ++w) words_[w] &= ~o.words_[w];
    return *this;
  }

  /// Complement within a schema of n attributes.
  AttributeSet complement(int n) const { return full(n) - *this; }

  bool operator==(const AttributeSet& o) const { return words_ == o.words_; }
  bool operator!=(const AttributeSet& o) const { return words_ != o.words_; }

  /// Lexicographic order on the bit words; a total order usable as a map key.
  bool operator<(const AttributeSet& o) const {
    for (int w = kWords - 1; w >= 0; --w) {
      if (words_[w] != o.words_[w]) return words_[w] < o.words_[w];
    }
    return false;
  }

  /// Invokes fn(AttrId) for every attribute in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (int w = 0; w < kWords; ++w) {
      uint64_t cur = words_[w];
      while (cur != 0) {
        fn(static_cast<AttrId>(w * 64 + std::countr_zero(cur)));
        cur &= cur - 1;
      }
    }
  }

  /// Invokes fn(a, rank) for every attribute a in both this set and
  /// `among`, ascending, where rank = count_below(a). Stops at the first
  /// call that returns false and then returns false; otherwise true.
  template <typename Fn>
  bool for_each_ranked(const AttributeSet& among, Fn&& fn) const {
    int base = 0;
    for (int w = 0; w < kWords; ++w) {
      uint64_t cur = words_[w] & among.words_[w];
      while (cur != 0) {
        const int b = std::countr_zero(cur);
        const int rank = base + std::popcount(words_[w] & ((uint64_t{1} << b) - 1));
        if (!fn(static_cast<AttrId>(w * 64 + b), rank)) return false;
        cur &= cur - 1;
      }
      base += std::popcount(words_[w]);
    }
    return true;
  }

  size_t hash() const {
    // 64-bit FNV-1a over the words; adequate for hash-map bucketing.
    uint64_t h = 1469598103934665603ull;
    for (uint64_t w : words_) {
      h ^= w;
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }

  /// Renders as e.g. "{0,3,7}"; for debugging and test failure messages.
  std::string to_string() const {
    std::string s = "{";
    bool fst = true;
    for_each([&](AttrId a) {
      if (!fst) s += ',';
      s += std::to_string(a);
      fst = false;
    });
    s += '}';
    return s;
  }

 private:
  // Schema refuses wider tables; this catches misuse in debug builds.
  static constexpr int word(AttrId a) {
    assert(a >= 0 && a < kCapacity);
    return a >> 6;
  }
  static constexpr uint64_t bit(AttrId a) { return uint64_t{1} << (a & 63); }

  std::array<uint64_t, kWords> words_;
};

struct AttributeSetHash {
  size_t operator()(const AttributeSet& s) const { return s.hash(); }
};

}  // namespace dhyfd

#endif  // DHYFD_UTIL_ATTRIBUTE_SET_H_
