#include "relation/schema.h"

#include <stdexcept>

namespace dhyfd {

Schema::Schema(std::vector<std::string> names) : names_(std::move(names)) {
  // Every relation is built on a Schema: refuse what an AttributeSet cannot hold.
  if (size() > AttributeSet::kCapacity) {
    throw std::invalid_argument("table has " + std::to_string(size()) + " columns; at most " +
                                std::to_string(AttributeSet::kCapacity) + " are supported");
  }
}

Schema Schema::numbered(int n, const std::string& prefix) {
  std::vector<std::string> names;
  names.reserve(n);
  for (int i = 0; i < n; ++i) names.push_back(prefix + std::to_string(i));
  return Schema(std::move(names));
}

AttrId Schema::index_of(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<AttrId>(i);
  }
  return -1;
}

std::string Schema::format(const AttributeSet& attrs) const {
  std::string out;
  bool first = true;
  attrs.for_each([&](AttrId a) {
    if (!first) out += ", ";
    out += name(a);
    first = false;
  });
  return out;
}

}  // namespace dhyfd
