#include "core/profiler.h"

#include "util/fruit.h"

namespace seeded {

void ObsAdd(const char* name, long delta = 1);

void Touch() {
  ObsAdd("core.widgets");
  // SEEDED VIOLATION: this name is not registered in obs_schema.json.
  ObsAdd("core.unregistered_counter");
}

int Classify(Fruit f) {
  // SEEDED VIOLATION: non-exhaustive switch over Fruit; the default arm
  // does not excuse the missing kBanana/kCherry enumerators.
  switch (f) {
    case Fruit::kApple:
      return 1;
    default:
      return 0;
  }
}

// SEEDED VIOLATION: a raw std::thread outside src/util/ (pass 4).
std::thread* g_worker = nullptr;

}  // namespace seeded
