#ifndef DHYFD_FDTREE_EXTENDED_FD_TREE_H_
#define DHYFD_FDTREE_EXTENDED_FD_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "fd/fd_set.h"

namespace dhyfd {

/// The paper's extended FD-tree (Section IV-C).
///
/// Differences from the classic tree:
///  * Only FD-nodes (nodes whose `rhs` is non-empty) carry RHS labels; there
///    is no subtree label propagation.
///  * Every node carries an integer id. Ids < num_attrs denote the
///    single-attribute stripped partition of that attribute; ids >=
///    num_attrs index the dynamic data manager's partition array
///    (id - num_attrs). Algorithm 1 keeps ids consistent: the indexed
///    partition's attribute set is always a subset of the node's path.
///  * Induction is "synergized" (Algorithm 2): one traversal handles a
///    whole non-FD X !-> Y instead of |Y| separate traversals.
///
/// Layout: the tree is flat. Nodes live in one chunked arena (stable
/// addresses, no per-node allocation) and are addressed by 32-bit index;
/// the root is index 0 and a child always has a larger index than its
/// parent. A node's children sit in one block of a shared slot pool,
/// ascending by attribute, and a bitmask of their attributes finds a child
/// by the rank of its bit, so walks visit only the children in
/// `child_mask & lhs` and never load a child just to read its attribute.
/// Nodes are never removed (induction only clears labels), and the tree
/// keeps each depth's nodes in a list.
class ExtendedFdTree {
 public:
  using NodeId = uint32_t;
  static constexpr NodeId kRoot = 0;
  static constexpr NodeId kNoNode = ~NodeId{0};

  struct Node {
    AttributeSet rhs;
    AttributeSet child_mask;  // attributes of the node's children
    NodeId parent;            // kNoNode for the root
    uint32_t children;        // first slot of the child block
    AttrId attr;              // -1 for the root
    int id;                   // see class comment

    bool is_fd_node() const { return !rhs.empty(); }
    bool is_leaf() const { return child_mask.empty(); }
  };

  explicit ExtendedFdTree(int num_attrs);

  int num_attrs() const { return num_attrs_; }

  const Node& node(NodeId n) const {
    return chunks_[n >> kChunkBits][n & kChunkMask];
  }
  const AttributeSet& root_rhs() const { return node(kRoot).rhs; }

  /// Re-points a node at another partition (the DDM and the validation
  /// loop's cheapest-attribute choice). Distinct nodes may be written from
  /// distinct threads.
  void set_id(NodeId n, int id) { mut(n).id = id; }

  /// The child of `n` for attribute `a`, or kNoNode.
  NodeId find_child(NodeId n, AttrId a) const {
    const Node& p = node(n);
    if (!p.child_mask.test(a)) return kNoNode;
    return slots_[p.children + p.child_mask.count_below(a)];
  }

  /// Installs the start FD {} -> rhs on the root (Algorithm 6 line 4).
  void init_root_fd(const AttributeSet& rhs) {
    Node& root = mut(kRoot);
    fd_count_ += rhs.count() - root.rhs.count();
    root.rhs = rhs;
  }

  /// The controlled level cl: new nodes at depth <= cl get their default id
  /// (their own attribute); deeper new nodes inherit their parent's id
  /// (Algorithm 1 steps 11-14).
  void set_controlled_level(int cl) { controlled_level_ = cl; }
  int controlled_level() const { return controlled_level_; }

  /// Algorithm 1: inserts the path for `lhs` (assigning consistent ids) and
  /// unions `rhs` into its final node's label.
  void add_fd(const AttributeSet& lhs, const AttributeSet& rhs);

  /// Algorithm 2: synergized induction for the non-FD x !-> y (x and y
  /// disjoint). Removes every refuted FD in one traversal and inserts all
  /// minimal non-refuted specializations.
  ///
  /// Precondition: the tree holds only minimal FDs (no Z -> B next to a
  /// Z' -> B with Z' a proper subset of Z), which induction preserves.
  /// Every discovery algorithm starts from {} -> R and only inducts, so its
  /// tree qualifies; it lets the generalization check for a specialization
  /// X' + a' -> B use anchored_covered_rhs, because a generalization of it
  /// without a' would generalize the refuted X' -> B too.
  void induct(const AttributeSet& x, const AttributeSet& y);

  /// The attribute set spelled by the path from the root to `n`.
  AttributeSet path_of(NodeId n) const;

  /// All nodes at the given depth (level 1 = children of the root), in
  /// descending lexicographic order of their paths. The order is a pure
  /// function of the tree's content, so shard boundaries and the DDM's entry
  /// numbering do not depend on the order the nodes were created in.
  std::vector<NodeId> level_nodes(int level) const;

  /// RHS attributes in `candidates` already covered by a generalization
  /// (some FD Z -> B with Z subseteq lhs). `minimal rhs` in Algorithm 2 is
  /// `candidates - covered_rhs(lhs, candidates)`.
  AttributeSet covered_rhs(const AttributeSet& lhs, const AttributeSet& candidates) const;

  /// covered_rhs restricted to generalizations that contain `anchor`
  /// (anchor in Z subseteq lhs): the walk prunes every branch that passes
  /// `anchor` without taking it. Induction's lookup; see induct().
  AttributeSet anchored_covered_rhs(const AttributeSet& lhs, AttrId anchor,
                                    const AttributeSet& candidates) const;

  /// Sum of |rhs| over all nodes: the number of FDs in the tree. O(1): the
  /// tree counts the labels init_root_fd, add_fd and induct set and clear.
  int64_t total_fd_count() const { return fd_count_; }

  size_t node_count() const { return node_count_; }

  /// Heap footprint of the arena chunks, the slot pool and the level lists;
  /// feeds the memory columns of Table II.
  size_t memory_bytes() const;

  /// Maximum depth of any node.
  int depth() const { return static_cast<int>(levels_.size()) - 1; }

  /// Resets every node's id to its default (its own attribute). The DDM
  /// calls this before re-propagating fresh dynamic ids so no node is left
  /// pointing into a replaced partition array (the id-consistency
  /// requirement of Section IV-E).
  void reset_ids();

  /// Copies every dynamic id (>= first_dynamic) down to the descendants of
  /// its node that hold a static one, in one arena scan. With reset_ids and
  /// set_id on one level's nodes this is the DDM's re-pointing (Algorithm 3
  /// steps 13-15).
  void propagate_dynamic_ids(int first_dynamic);

  /// All FDs in the tree, singleton RHSs, as a left-reduced cover.
  FdSet collect() const;

 private:
  static constexpr int kChunkBits = 8;
  static constexpr NodeId kChunkMask = (NodeId{1} << kChunkBits) - 1;

  Node& mut(NodeId n) { return chunks_[n >> kChunkBits][n & kChunkMask]; }
  NodeId new_node(NodeId parent, AttrId attr, int id, int depth);
  NodeId ensure_child(NodeId parent, AttrId a, int depth);
  uint32_t take_block(uint32_t size);
  bool cover_below(NodeId n, const AttributeSet& lhs, const AttributeSet& candidates,
                   AttributeSet& covered) const;
  bool cover_through(NodeId n, const AttributeSet& before, AttrId anchor,
                     const AttributeSet& lhs, const AttributeSet& candidates,
                     AttributeSet& covered) const;
  void induct_rec(const AttributeSet& x, const AttributeSet& y, NodeId current);
  void process_fd_node(const AttributeSet& x, const AttributeSet& y, NodeId current);

  int num_attrs_;
  int controlled_level_ = 0;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  // Child blocks: a node with k children owns bit_ceil(k) consecutive slots.
  // Blocks a node outgrows go to a free list per power-of-two size.
  std::vector<NodeId> slots_;
  std::vector<std::vector<uint32_t>> free_blocks_;
  std::vector<std::vector<NodeId>> levels_;  // levels_[d]: the nodes at depth d
  size_t node_count_ = 0;
  int64_t fd_count_ = 0;
};

}  // namespace dhyfd

#endif  // DHYFD_FDTREE_EXTENDED_FD_TREE_H_
