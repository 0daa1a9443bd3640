#ifndef DHYFD_RELATION_SCHEMA_H_
#define DHYFD_RELATION_SCHEMA_H_

#include <string>
#include <vector>

#include "util/attribute_set.h"

namespace dhyfd {

/// A relation schema: an ordered list of named attributes.
///
/// The total order on attributes (schema position) is what lets the
/// discovery algorithms identify columns by integers, as the paper assumes.
class Schema {
 public:
  Schema() = default;
  /// Throws std::invalid_argument beyond AttributeSet::kCapacity names.
  explicit Schema(std::vector<std::string> names);

  /// Convenience: makes a schema "c0", "c1", ..., "c(n-1)".
  static Schema numbered(int n, const std::string& prefix = "c");

  int size() const { return static_cast<int>(names_.size()); }
  const std::string& name(AttrId a) const { return names_[a]; }
  const std::vector<std::string>& names() const { return names_; }

  /// Index of the attribute with the given name, or -1 if absent.
  AttrId index_of(const std::string& name) const;

  /// The set of all attributes of this schema.
  AttributeSet all() const { return AttributeSet::full(size()); }

  /// Renders an attribute set as a comma-separated list of column names.
  std::string format(const AttributeSet& attrs) const;

 private:
  std::vector<std::string> names_;
};

}  // namespace dhyfd

#endif  // DHYFD_RELATION_SCHEMA_H_
