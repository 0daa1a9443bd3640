#include "service/dataset_registry.h"

#include <stdexcept>
#include <utility>

#include "obs/obs_schema.gen.h"
#include "util/timer.h"

namespace dhyfd {

void DatasetRegistry::add_table(const std::string& name, const RawTable& table) {
  Timer timer;
  auto relation = std::make_shared<const Relation>(
      EncodeRelation(table, NullSemantics::kNullEqualsNull).relation);
  if (metrics_ != nullptr) {
    metrics_->histogram(kObsDatasetEncodeSeconds).record(timer.seconds());
  }
  add_relation(name, std::move(relation));
}

void DatasetRegistry::add_relation(const std::string& name,
                                   std::shared_ptr<const Relation> codes) {
  MutexLock lock(&mu_);
  relations_[name] = std::move(codes);
}

std::shared_ptr<const Relation> DatasetRegistry::get(const std::string& name,
                                                     NullSemantics semantics) {
  std::shared_ptr<const Relation> relation;
  {
    MutexLock lock(&mu_);
    auto it = relations_.find(name);
    if (it == relations_.end()) {
      throw std::out_of_range("DatasetRegistry: unknown dataset: " + name);
    }
    relation = it->second;
  }
  if (semantics == NullSemantics::kNullEqualsNull) return relation;
  return std::make_shared<const Relation>(SeparateNulls(*relation));
}

bool DatasetRegistry::contains(const std::string& name) const {
  MutexLock lock(&mu_);
  return relations_.count(name) > 0;
}

std::vector<std::string> DatasetRegistry::names() const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [name, relation] : relations_) out.push_back(name);
  return out;
}

}  // namespace dhyfd
