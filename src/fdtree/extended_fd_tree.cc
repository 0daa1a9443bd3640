#include "fdtree/extended_fd_tree.h"

#include <algorithm>
#include <bit>

namespace dhyfd {

// 80 B: no more than a heap-allocated 72 B node plus its owning pointer.
static_assert(sizeof(ExtendedFdTree::Node) <= 80, "FD-tree node outgrew its budget");

ExtendedFdTree::ExtendedFdTree(int num_attrs) : num_attrs_(num_attrs) {
  new_node(kNoNode, -1, -1, 0);
}

ExtendedFdTree::NodeId ExtendedFdTree::new_node(NodeId parent, AttrId attr, int id,
                                                int depth) {
  const NodeId n = static_cast<NodeId>(node_count_++);
  if ((n & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<Node[]>(size_t{kChunkMask} + 1));
  }
  mut(n) = Node{{}, {}, parent, 0, attr, id};
  if (levels_.size() <= static_cast<size_t>(depth)) levels_.resize(depth + 1);
  levels_[depth].push_back(n);
  return n;
}

uint32_t ExtendedFdTree::take_block(uint32_t size) {
  const size_t size_class = static_cast<size_t>(std::countr_zero(size));
  if (size_class < free_blocks_.size() && !free_blocks_[size_class].empty()) {
    const uint32_t block = free_blocks_[size_class].back();
    free_blocks_[size_class].pop_back();
    return block;
  }
  const uint32_t block = static_cast<uint32_t>(slots_.size());
  slots_.resize(slots_.size() + size);
  return block;
}

ExtendedFdTree::NodeId ExtendedFdTree::ensure_child(NodeId parent, AttrId a, int depth) {
  Node& p = mut(parent);  // arena chunks never move, so p survives new_node
  const int rank = p.child_mask.count_below(a);
  if (p.child_mask.test(a)) return slots_[p.children + rank];
  // Algorithm 1 steps 11-14: below the controlled level a new node inherits
  // its parent's id (whose partition attributes are a subset of the parent
  // path, hence of the new node's path); at or above it, the default id.
  const int id = depth > controlled_level_ && parent != kRoot ? p.id : a;
  const NodeId child = new_node(parent, a, id, depth);
  // A block of k children holds bit_ceil(k) slots: it is full exactly when
  // k is 0 or a power of two, and then moves to a block twice its size.
  const uint32_t count = static_cast<uint32_t>(p.child_mask.count());
  const auto at = [&](uint32_t block, uint32_t i) {
    return slots_.begin() + static_cast<std::ptrdiff_t>(block + i);
  };
  if (count == 0 || std::has_single_bit(count)) {
    const uint32_t block = take_block(count == 0 ? 1 : 2 * count);
    std::copy(at(p.children, 0), at(p.children, rank), at(block, 0));
    std::copy(at(p.children, rank), at(p.children, count), at(block, rank + 1));
    if (count > 0) {
      const size_t size_class = static_cast<size_t>(std::countr_zero(count));
      if (free_blocks_.size() <= size_class) free_blocks_.resize(size_class + 1);
      free_blocks_[size_class].push_back(p.children);
    }
    p.children = block;
  } else {
    std::copy_backward(at(p.children, rank), at(p.children, count),
                       at(p.children, count + 1));
  }
  slots_[p.children + rank] = child;
  p.child_mask.set(a);
  return child;
}

void ExtendedFdTree::add_fd(const AttributeSet& lhs, const AttributeSet& rhs) {
  NodeId current = kRoot;
  int depth = 0;
  lhs.for_each([&](AttrId a) { current = ensure_child(current, a, ++depth); });
  Node& n = mut(current);
  fd_count_ += (rhs - n.rhs).count();
  n.rhs |= rhs;
}

AttributeSet ExtendedFdTree::path_of(NodeId n) const {
  AttributeSet path;
  for (NodeId cur = n; cur != kRoot; cur = node(cur).parent) path.set(node(cur).attr);
  return path;
}

std::vector<ExtendedFdTree::NodeId> ExtendedFdTree::level_nodes(int level) const {
  if (level < 0 || static_cast<size_t>(level) >= levels_.size()) return {};
  std::vector<std::pair<AttributeSet, NodeId>> keyed;
  keyed.reserve(levels_[level].size());
  for (NodeId n : levels_[level]) keyed.emplace_back(path_of(n), n);
  // Equal-size paths: p precedes q in descending lexicographic order iff the
  // smallest attribute on which they differ belongs to q.
  std::sort(keyed.begin(), keyed.end(), [](const auto& p, const auto& q) {
    const AttrId d = ((p.first - q.first) | (q.first - p.first)).first();
    return d >= 0 && q.first.test(d);
  });
  std::vector<NodeId> out;
  out.reserve(keyed.size());
  for (const auto& [path, n] : keyed) out.push_back(n);
  return out;
}

bool ExtendedFdTree::cover_below(NodeId n, const AttributeSet& lhs,
                                 const AttributeSet& candidates,
                                 AttributeSet& covered) const {
  const Node& p = node(n);
  return p.child_mask.for_each_ranked(lhs, [&](AttrId, int rank) {
    const NodeId c = slots_[p.children + rank];
    covered |= node(c).rhs & candidates;
    return covered != candidates && cover_below(c, lhs, candidates, covered);
  });
}

bool ExtendedFdTree::cover_through(NodeId n, const AttributeSet& before, AttrId anchor,
                                   const AttributeSet& lhs,
                                   const AttributeSet& candidates,
                                   AttributeSet& covered) const {
  const Node& p = node(n);
  // `before` holds the lhs attributes up to the anchor: a child past the
  // anchor would spell a path that skipped it.
  return p.child_mask.for_each_ranked(before, [&](AttrId a, int rank) {
    const NodeId c = slots_[p.children + rank];
    if (a != anchor) return cover_through(c, before, anchor, lhs, candidates, covered);
    covered |= node(c).rhs & candidates;
    return covered != candidates && cover_below(c, lhs, candidates, covered);
  });
}

AttributeSet ExtendedFdTree::covered_rhs(const AttributeSet& lhs,
                                         const AttributeSet& candidates) const {
  AttributeSet covered = root_rhs() & candidates;
  if (covered != candidates) cover_below(kRoot, lhs, candidates, covered);
  return covered;
}

AttributeSet ExtendedFdTree::anchored_covered_rhs(const AttributeSet& lhs, AttrId anchor,
                                                  const AttributeSet& candidates) const {
  AttributeSet covered;
  cover_through(kRoot, lhs & AttributeSet::full(anchor + 1), anchor, lhs, candidates,
                covered);
  return covered;
}

void ExtendedFdTree::process_fd_node(const AttributeSet& x, const AttributeSet& y,
                                     NodeId current) {
  Node& n = mut(current);
  AttributeSet removed = n.rhs & y;
  if (removed.empty()) return;
  n.rhs -= y;
  fd_count_ -= removed.count();
  const AttributeSet x_prime = path_of(current);

  // In a minimal tree no generalization of the refuted X' -> B survives, so
  // a generalization of X' + a' -> B contains a' (added FDs contain an
  // attribute outside x, hence are no subsets of X'): the anchored lookup
  // finds exactly what the full one would.

  // Case 1 (Algorithm 2 steps 12-14): extend with attributes outside
  // X + removed; the new LHS is then not a subset of X.
  AttributeSet outside = AttributeSet::full(num_attrs_) - (x | removed);
  outside -= x_prime;  // extending with a path attribute is a no-op
  outside.for_each([&](AttrId a_prime) {
    AttributeSet new_lhs = x_prime;
    new_lhs.set(a_prime);
    AttributeSet minimal = removed - anchored_covered_rhs(new_lhs, a_prime, removed);
    if (!minimal.empty()) add_fd(new_lhs, minimal);
  });

  // Case 2 (steps 15-19): extend with one of the removed attributes; the
  // RHS then loses that attribute to stay non-trivial.
  if (removed.count() > 1) {
    removed.for_each([&](AttrId a_prime) {
      AttributeSet new_lhs = x_prime;
      new_lhs.set(a_prime);
      AttributeSet candidate = removed;
      candidate.reset(a_prime);
      AttributeSet minimal =
          candidate - anchored_covered_rhs(new_lhs, a_prime, candidate);
      if (!minimal.empty()) add_fd(new_lhs, minimal);
    });
  }
}

void ExtendedFdTree::induct_rec(const AttributeSet& x, const AttributeSet& y,
                                NodeId current) {
  if (node(current).is_fd_node()) process_fd_node(x, y, current);
  // New paths created by process_fd_node always contain an attribute
  // outside x, so the children to descend into are fixed here. Each is
  // looked up afresh: inductions below may move this node's child block.
  (node(current).child_mask & x).for_each([&](AttrId a) {
    induct_rec(x, y, find_child(current, a));
  });
}

void ExtendedFdTree::induct(const AttributeSet& x, const AttributeSet& y) {
  induct_rec(x, y, kRoot);
}

void ExtendedFdTree::reset_ids() {
  for (NodeId n = 1; n < node_count_; ++n) {
    Node& c = mut(n);
    c.id = c.attr;
  }
}

void ExtendedFdTree::propagate_dynamic_ids(int first_dynamic) {
  // Parents precede children in the arena, so one ascending scan carries an
  // id down any number of levels.
  for (NodeId n = 1; n < node_count_; ++n) {
    Node& c = mut(n);
    const int parent_id = node(c.parent).id;
    if (parent_id >= first_dynamic && c.id < first_dynamic) c.id = parent_id;
  }
}

size_t ExtendedFdTree::memory_bytes() const {
  size_t bytes = chunks_.size() * ((size_t{kChunkMask} + 1) * sizeof(Node)) +
                 chunks_.capacity() * sizeof(chunks_[0]) +
                 slots_.capacity() * sizeof(NodeId);
  for (const auto& level : levels_) bytes += level.capacity() * sizeof(NodeId);
  for (const auto& blocks : free_blocks_) bytes += blocks.capacity() * sizeof(uint32_t);
  return bytes;
}

FdSet ExtendedFdTree::collect() const {
  FdSet out;
  std::vector<std::pair<NodeId, AttributeSet>> stack = {{kRoot, {}}};
  while (!stack.empty()) {
    auto [n, path] = stack.back();
    stack.pop_back();
    const Node& p = node(n);
    p.rhs.for_each([&](AttrId a) { out.add(Fd(path, a)); });
    p.child_mask.for_each_ranked(p.child_mask, [&](AttrId a, int rank) {
      AttributeSet child_path = path;
      child_path.set(a);
      stack.emplace_back(slots_[p.children + rank], child_path);
      return true;
    });
  }
  return out;
}

}  // namespace dhyfd
