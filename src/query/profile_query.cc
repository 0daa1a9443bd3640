#include "query/profile_query.h"

#include <utility>

#include "query/engine.h"

namespace dhyfd {

std::shared_ptr<QueryResultSlot> BindQueryToProfile(ProfileOptions& options,
                                                    DiscoveryQuery query) {
  auto slot = std::make_shared<QueryResultSlot>();
  options.discovery_override =
      [slot, query = std::move(query)](
          const Relation& relation,
          const ProfileOptions& opts) -> DiscoveryResult {
    // Engine limits come from the options at profile() time, after the
    // service layer's parallelism clamp and pool injection; the stop signal
    // is the caller's CancelScope token.
    QueryEngineOptions engine_options;
    engine_options.parallelism = opts.parallelism;
    engine_options.worker_pool = opts.worker_pool;
    slot->result = QueryEngine(engine_options).execute(relation, query);

    // Surface the query answer through the generic discovery fields so
    // cover and ranking consumers work unchanged.
    DiscoveryResult discovery;
    discovery.fds = slot->result->cover();
    discovery.stats.seconds = slot->result->stats.seconds;
    discovery.stats.validations = slot->result->stats.validations;
    discovery.stats.levels = slot->result->stats.levels;
    discovery.stats.timed_out = slot->result->stats.timed_out;
    return discovery;
  };
  return slot;
}

}  // namespace dhyfd
