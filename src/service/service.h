#ifndef DHYFD_SERVICE_SERVICE_H_
#define DHYFD_SERVICE_SERVICE_H_

/// Umbrella header for the embeddable profiling service:
///
///   MetricsRegistry metrics;
///   DatasetRegistry datasets(&metrics);
///   datasets.add_table("orders", ReadCsvFile("orders.csv"));
///   JobScheduler scheduler(&datasets, &metrics);
///   auto h = scheduler.submit({.dataset = "orders",
///                              .options = {.algorithm = "dhyfd"}});
///   h->wait();
///   std::cout << h->report().summary() << metrics.snapshot();

/// Live (mutating) datasets are hosted by the LiveStore: register a table
/// with create(), then stream UpdateBatches through submit()/apply() while
/// cover() / ranking() serve the maintained profile between batches.

#include "service/dataset_registry.h"
#include "service/job.h"
#include "service/live_store.h"
#include "service/metrics.h"
#include "service/scheduler.h"

#endif  // DHYFD_SERVICE_SERVICE_H_
