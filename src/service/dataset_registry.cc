#include "service/dataset_registry.h"

#include <stdexcept>
#include <utility>

#include "obs/obs_schema.gen.h"
#include "relation/schema.h"
#include "util/timer.h"

namespace dhyfd {

void DatasetRegistry::add_table(const std::string& name, RawTable table) {
  (void)Schema(table.header);  // refuses a too-wide table before it replaces one
  auto entry = std::make_shared<Entry>();
  entry->table = std::make_shared<const RawTable>(std::move(table));
  MutexLock lock(&mu_);
  entries_[name] = std::move(entry);
}

void DatasetRegistry::add_csv_file(const std::string& name,
                                   const std::string& path,
                                   CsvOptions options) {
  auto entry = std::make_shared<Entry>();
  entry->path = path;
  entry->csv_options = std::move(options);
  MutexLock lock(&mu_);
  entries_[name] = std::move(entry);
}

std::shared_ptr<const Relation> DatasetRegistry::get(const std::string& name,
                                                     NullSemantics semantics) {
  std::shared_ptr<Entry> entry;
  std::shared_future<std::shared_ptr<const Relation>> future;
  std::promise<std::shared_ptr<const Relation>> promise;
  bool encoder = false;
  {
    MutexLock lock(&mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw std::out_of_range("DatasetRegistry: unknown dataset: " + name);
    }
    entry = it->second;
    auto slot = entry->encoded.find(semantics);
    if (slot != entry->encoded.end()) {
      future = slot->second;
    } else {
      encoder = true;
      future = promise.get_future().share();
      entry->encoded.emplace(semantics, future);
    }
  }

  if (metrics_ != nullptr) {
    metrics_->counter(encoder ? kObsDatasetCacheMisses : kObsDatasetCacheHits)
        .inc();
  }

  if (encoder) {
    try {
      Timer timer;
      RawTable loaded;
      const RawTable* source = entry->table.get();
      if (source == nullptr) {
        loaded = ReadCsvFile(entry->path, entry->csv_options);
        source = &loaded;
      }
      auto relation = std::make_shared<const Relation>(
          EncodeRelation(*source, semantics).relation);
      if (metrics_ != nullptr) {
        metrics_->histogram(kObsDatasetEncodeSeconds).record(timer.seconds());
      }
      promise.set_value(std::move(relation));
    } catch (...) {
      promise.set_exception(std::current_exception());
      // Drop the failed slot so a later get() can retry (e.g. the CSV file
      // appears after a transient read failure). Waiters already holding
      // the future still see this exception.
      MutexLock lock(&mu_);
      auto slot = entry->encoded.find(semantics);
      if (slot != entry->encoded.end()) entry->encoded.erase(slot);
    }
  }

  return future.get();
}

bool DatasetRegistry::contains(const std::string& name) const {
  MutexLock lock(&mu_);
  return entries_.count(name) > 0;
}

std::vector<std::string> DatasetRegistry::names() const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

void DatasetRegistry::erase(const std::string& name) {
  MutexLock lock(&mu_);
  entries_.erase(name);
}

void DatasetRegistry::clear() {
  MutexLock lock(&mu_);
  entries_.clear();
}

}  // namespace dhyfd
