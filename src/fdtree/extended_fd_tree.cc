#include "fdtree/extended_fd_tree.h"

namespace dhyfd {

ExtendedFdTree::ExtendedFdTree(int num_attrs)
    : num_attrs_(num_attrs),
      root_(new Node{-1, -1, {}, nullptr, {}}) {}

ExtendedFdTree::Node* ExtendedFdTree::Node::find_child(AttrId a) const {
  for (const auto& c : children) {
    if (c->attr == a) return c.get();
    if (c->attr > a) break;
  }
  return nullptr;
}

ExtendedFdTree::Node* ExtendedFdTree::ensure_child(Node* node, AttrId a, int depth) {
  size_t pos = 0;
  while (pos < node->children.size() && node->children[pos]->attr < a) ++pos;
  if (pos < node->children.size() && node->children[pos]->attr == a) {
    return node->children[pos].get();
  }
  // Algorithm 1 steps 11-14: below the controlled level a new node inherits
  // its parent's id (whose partition attributes are a subset of the parent
  // path, hence of the new node's path); at or above it, the default id.
  int id;
  if (depth > controlled_level_ && node->attr >= 0) {
    id = node->id;
  } else {
    id = a;
  }
  auto child = std::make_unique<Node>(Node{a, id, {}, node, {}});
  Node* raw = child.get();
  node->children.insert(node->children.begin() + pos, std::move(child));
  ++node_count_;
  return raw;
}

void ExtendedFdTree::add_fd(const AttributeSet& lhs, const AttributeSet& rhs) {
  Node* current = root_.get();
  int depth = 0;
  lhs.for_each([&](AttrId a) { current = ensure_child(current, a, ++depth); });
  fd_count_ += (rhs - current->rhs).count();
  current->rhs |= rhs;
}

AttributeSet ExtendedFdTree::path_of(const Node* n) const {
  AttributeSet path;
  for (const Node* cur = n; cur != nullptr && cur->attr >= 0; cur = cur->parent) {
    path.set(cur->attr);
  }
  return path;
}

std::vector<ExtendedFdTree::Node*> ExtendedFdTree::level_nodes(int level) {
  std::vector<Node*> out;
  std::vector<std::pair<Node*, int>> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    if (depth == level) {
      out.push_back(node);
      continue;  // deeper nodes are beyond the requested level
    }
    for (const auto& c : node->children) stack.emplace_back(c.get(), depth + 1);
  }
  return out;
}

AttributeSet ExtendedFdTree::covered_rhs(const AttributeSet& lhs,
                                         const AttributeSet& candidates) const {
  AttributeSet covered = root_->rhs & candidates;
  if (covered == candidates) return covered;
  // DFS over paths that stay inside lhs; union FD-node labels.
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    for (const auto& c : node->children) {
      if (!lhs.test(c->attr)) continue;
      covered |= c->rhs & candidates;
      if (covered == candidates) return covered;
      stack.push_back(c.get());
    }
  }
  return covered;
}

void ExtendedFdTree::process_fd_node(const AttributeSet& x, const AttributeSet& y,
                                     Node* current) {
  AttributeSet removed = current->rhs & y;
  current->rhs -= y;
  if (removed.empty()) return;
  fd_count_ -= removed.count();
  AttributeSet x_prime = path_of(current);

  // Case 1 (Algorithm 2 steps 12-14): extend with attributes outside
  // X + removed; the new LHS is then not a subset of X.
  AttributeSet outside = AttributeSet::full(num_attrs_) - (x | removed);
  outside -= x_prime;  // extending with a path attribute is a no-op
  outside.for_each([&](AttrId a_prime) {
    AttributeSet new_lhs = x_prime;
    new_lhs.set(a_prime);
    AttributeSet minimal = removed - covered_rhs(new_lhs, removed);
    minimal.reset(a_prime);  // keep the FD non-trivial
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
      AttributeSet minimal = candidate - covered_rhs(new_lhs, candidate);
      if (!minimal.empty()) add_fd(new_lhs, minimal);
    });
  }
}

void ExtendedFdTree::induct_rec(const std::vector<AttrId>& x_attrs, size_t i,
                                const AttributeSet& x, const AttributeSet& y,
                                Node* current) {
  if (current->is_fd_node()) process_fd_node(x, y, current);
  for (size_t j = i; j < x_attrs.size(); ++j) {
    // New paths created by process_fd_node always contain an attribute
    // outside x, so this lookup never descends into freshly added branches.
    if (current->children.empty() || x_attrs[j] > current->children.back()->attr) {
      return;
    }
    Node* c = current->find_child(x_attrs[j]);
    if (c != nullptr) induct_rec(x_attrs, j + 1, x, y, c);
  }
}

void ExtendedFdTree::induct(const AttributeSet& x, const AttributeSet& y) {
  std::vector<AttrId> x_attrs;
  x.for_each([&](AttrId a) { x_attrs.push_back(a); });
  induct_rec(x_attrs, 0, x, y, root_.get());
}

void ExtendedFdTree::reset_ids() {
  std::vector<Node*> stack = {root_.get()};
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    if (node->attr >= 0) node->id = node->attr;
    for (const auto& c : node->children) stack.push_back(c.get());
  }
}

int ExtendedFdTree::depth() const {
  int max_depth = 0;
  std::vector<std::pair<const Node*, int>> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    auto [node, d] = stack.back();
    stack.pop_back();
    if (d > max_depth) max_depth = d;
    for (const auto& c : node->children) stack.emplace_back(c.get(), d + 1);
  }
  return max_depth;
}

FdSet ExtendedFdTree::collect() const {
  FdSet out;
  std::vector<std::pair<const Node*, AttributeSet>> stack = {{root_.get(), {}}};
  while (!stack.empty()) {
    auto [node, path] = stack.back();
    stack.pop_back();
    node->rhs.for_each([&](AttrId a) { out.add(Fd(path, a)); });
    for (const auto& c : node->children) {
      AttributeSet child_path = path;
      child_path.set(c->attr);
      stack.emplace_back(c.get(), child_path);
    }
  }
  return out;
}

}  // namespace dhyfd
