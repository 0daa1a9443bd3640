// fd_service_demo: the profiling service end to end.
//
// Registers three synthetic benchmark tables in a DatasetRegistry, spins up
// a JobScheduler, and submits a mixed batch of concurrent jobs across four
// discovery algorithms (dhyfd, tane, hyfd, fdep) at different priorities —
// plus one deliberately slow job that gets cancelled mid-run and one with a
// tight per-job time limit. Prints every job's outcome and the service's
// metrics snapshot (per-stage latencies included).
//
// Usage:
//   example_fd_service_demo [threads] [rows] [--trace=out.json] [--metrics=out.prom]
//
// --trace exports a Chrome trace (open in Perfetto / chrome://tracing): each
// job's queue-wait, run span, discovery stages, and algorithm counter series
// grouped under its args.trace_id. --metrics writes the final Prometheus
// snapshot.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "datagen/benchmark_data.h"
#include "obs/session.h"
#include "service/service.h"

int main(int argc, char** argv) {
  using namespace dhyfd;

  // Positional args first, --key=value flags anywhere.
  ObsSessionOptions obs_options;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      obs_options.trace_path = arg.substr(8);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      obs_options.metrics_path = arg.substr(10);
    } else {
      positional.push_back(arg);
    }
  }
  int threads = positional.size() > 0 ? std::atoi(positional[0].c_str()) : 4;
  int rows = positional.size() > 1 ? std::atoi(positional[1].c_str()) : 1500;

  MetricsRegistry metrics;
  obs_options.metrics = &metrics;  // export the service registry, not a private one
  ObsSession obs(obs_options);
  DatasetRegistry datasets(&metrics);
  datasets.add_table("ncvoter", GenerateBenchmark("ncvoter", rows));
  datasets.add_table("adult", GenerateBenchmark("adult", rows));
  datasets.add_table("abalone", GenerateBenchmark("abalone", rows));
  // A bigger table for the job we cancel: fdep compares all tuple pairs, so
  // at 6x the rows it reliably outlives the cancel request below.
  datasets.add_table("ncvoter_big", GenerateBenchmark("ncvoter", rows * 6));

  JobScheduler scheduler(&datasets, &metrics, {.num_threads = threads});
  std::printf("service up: %d worker threads, datasets:", scheduler.num_threads());
  for (const std::string& name : datasets.names()) std::printf(" %s", name.c_str());
  std::printf("\n\n");

  // The mixed batch: 9 jobs, 4 algorithms, 3 datasets, varying priorities.
  // Repeated (dataset, semantics) pairs hit the registry's encoding cache.
  struct Spec { const char* dataset; const char* algorithm; int priority; };
  const std::vector<Spec> batch = {
      {"ncvoter", "dhyfd", 2}, {"ncvoter", "tane", 0}, {"ncvoter", "hyfd", 1},
      {"adult", "dhyfd", 2},   {"adult", "fdep", 0},   {"adult", "tane", 1},
      {"abalone", "dhyfd", 1}, {"abalone", "hyfd", 0}, {"abalone", "fdep", 0},
  };

  std::vector<JobHandlePtr> handles;
  for (const Spec& spec : batch) {
    ProfileJob job;
    job.dataset = spec.dataset;
    job.options.algorithm = spec.algorithm;
    job.priority = spec.priority;
    handles.push_back(scheduler.submit(job));
  }

  // The victim: a slow full-pipeline job we cancel shortly after submission.
  ProfileJob victim_job;
  victim_job.dataset = "ncvoter_big";
  victim_job.options.algorithm = "fdep";
  victim_job.priority = 3;  // jumps the queue so it is running when we cancel
  JobHandlePtr victim = scheduler.submit(victim_job);

  // A job with a per-job time limit far below what fdep needs at this size.
  ProfileJob limited_job;
  limited_job.dataset = "ncvoter_big";
  limited_job.options.algorithm = "fdep";
  limited_job.time_limit_seconds = 0.05;
  JobHandlePtr limited = scheduler.submit(limited_job);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::printf("cancelling job #%llu (%s on ncvoter_big) after 100 ms...\n\n",
              static_cast<unsigned long long>(victim->id()),
              victim->job().options.algorithm.c_str());
  victim->cancel();

  scheduler.wait_all();

  std::printf("%-4s %-12s %-7s %-10s %9s %9s  %s\n", "id", "dataset", "algo",
              "state", "queued_s", "run_s", "detail");
  auto print_row = [](const JobHandlePtr& h) {
    std::string detail;
    if (h->state() == JobState::kDone) {
      const ProfileReport& rep = h->report();
      detail = "|L-r|=" + std::to_string(rep.discovery.fds.size()) +
               " |Can|=" + std::to_string(rep.canonical.size());
      if (rep.discovery.stats.timed_out) detail += " (timed out: partial)";
    } else if (h->state() == JobState::kFailed) {
      detail = h->error();
    } else {
      detail = "stopped early";
    }
    std::printf("%-4llu %-12s %-7s %-10s %9.4f %9.4f  %s\n",
                static_cast<unsigned long long>(h->id()),
                h->job().dataset.c_str(), h->job().options.algorithm.c_str(),
                JobStateName(h->state()), h->queue_seconds(), h->run_seconds(),
                detail.c_str());
  };
  for (const JobHandlePtr& h : handles) print_row(h);
  print_row(victim);
  print_row(limited);

  if (victim->state() != JobState::kCancelled) {
    std::printf("\nWARNING: victim finished before the cancel landed; rerun "
                "with more rows.\n");
  }

  std::printf("\n=== metrics snapshot ===\n%s", metrics.snapshot().c_str());
  return 0;
}
