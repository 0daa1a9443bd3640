#ifndef DHYFD_FDTREE_EXTENDED_FD_TREE_H_
#define DHYFD_FDTREE_EXTENDED_FD_TREE_H_

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
class ExtendedFdTree {
 public:
  struct Node {
    AttrId attr;   // -1 for the root
    int id;        // see class comment
    AttributeSet rhs;
    Node* parent;
    std::vector<std::unique_ptr<Node>> children;  // ascending by attr

    bool is_fd_node() const { return !rhs.empty(); }
    bool is_leaf() const { return children.empty(); }
    Node* find_child(AttrId a) const;
  };

  explicit ExtendedFdTree(int num_attrs);

  int num_attrs() const { return num_attrs_; }
  Node* root() { return root_.get(); }
  const Node* root() const { return root_.get(); }

  /// Installs the start FD {} -> rhs on the root (Algorithm 6 line 4).
  void init_root_fd(const AttributeSet& rhs) {
    fd_count_ += rhs.count() - root_->rhs.count();
    root_->rhs = rhs;
  }

  /// The controlled level cl: new nodes at depth <= cl get their default id
  /// (their own attribute); deeper new nodes inherit their parent's id
  /// (Algorithm 1 steps 11-14).
  void set_controlled_level(int cl) { controlled_level_ = cl; }
  int controlled_level() const { return controlled_level_; }

  /// Algorithm 1: inserts the path for `lhs` (assigning consistent ids) and
  /// unions `rhs` into its final node's label.
  void add_fd(const AttributeSet& lhs, const AttributeSet& rhs);

  /// Algorithm 2: synergized induction for the non-FD x !-> y. Removes every
  /// refuted FD in one traversal and inserts all minimal non-refuted
  /// specializations.
  void induct(const AttributeSet& x, const AttributeSet& y);

  /// The attribute set spelled by the path from the root to `n`.
  AttributeSet path_of(const Node* n) const;

  /// All nodes at the given depth (level 1 = children of the root).
  std::vector<Node*> level_nodes(int level);

  /// RHS attributes in `candidates` already covered by a generalization
  /// (some FD Z -> B with Z subseteq lhs). `minimal rhs` in Algorithm 2 is
  /// `candidates - covered_rhs(lhs, candidates)`.
  AttributeSet covered_rhs(const AttributeSet& lhs, const AttributeSet& candidates) const;

  /// Sum of |rhs| over all nodes: the number of FDs in the tree. O(1): the
  /// tree counts the labels init_root_fd, add_fd and induct set and clear.
  int64_t total_fd_count() const { return fd_count_; }

  size_t node_count() const { return node_count_; }

  /// Approximate heap footprint; feeds the memory columns of Table II.
  size_t memory_bytes() const {
    return node_count_ * (sizeof(Node) + 2 * sizeof(void*));
  }

  /// Maximum depth of any node.
  int depth() const;

  /// Resets every node's id to its default (its own attribute). The DDM
  /// calls this before re-propagating fresh dynamic ids so no node is left
  /// pointing into a replaced partition array (the id-consistency
  /// requirement of Section IV-E).
  void reset_ids();

  /// All FDs in the tree, singleton RHSs, as a left-reduced cover.
  FdSet collect() const;

 private:
  Node* ensure_child(Node* node, AttrId a, int depth);
  void induct_rec(const std::vector<AttrId>& x_attrs, size_t i,
                  const AttributeSet& x, const AttributeSet& y, Node* current);
  void process_fd_node(const AttributeSet& x, const AttributeSet& y, Node* current);

  int num_attrs_;
  int controlled_level_ = 0;
  std::unique_ptr<Node> root_;
  size_t node_count_ = 1;
  int64_t fd_count_ = 0;
};

}  // namespace dhyfd

#endif  // DHYFD_FDTREE_EXTENDED_FD_TREE_H_
