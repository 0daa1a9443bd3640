#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/discovery.h"
#include "bench.h"
#include "core/profiler.h"
#include "datagen/benchmark_data.h"
#include "datagen/update_stream.h"
#include "incr/live_profile.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle.h"
#include "ranking/ranking.h"
#include "relation/encoder.h"
#include "service/live_store.h"
#include "service/scheduler.h"
#include "util/memory.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {

// Set-up is repeated and its median reported, so that work moved into
// set-up shows without one slow repetition deciding the figure.
constexpr int kSetups = 5;

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double idx = q * static_cast<double>(samples.size() - 1);
  std::size_t lo = static_cast<std::size_t>(idx);
  std::size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = idx - static_cast<double>(lo);
  return samples[lo] * (1 - frac) + samples[hi] * frac;
}

double Mean(const std::vector<double>& samples) {
  double sum = 0;
  for (double s : samples) sum += s;
  return samples.empty() ? 0 : sum / static_cast<double>(samples.size());
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  return static_cast<double>(dhyfd::PeakRssBytes()) / (1024.0 * 1024.0);
}

int BenchThreads() {
  long cores = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp(cores, 1L, 4L));
}

namespace {

void SeedRow(std::vector<std::string>* row, const std::vector<std::string>& suffix) {
  for (std::size_t c = 0; c < row->size(); ++c) {
    if (!IsNullCell((*row)[c])) (*row)[c] += suffix[c];
  }
}

std::vector<std::string> SeedSuffixes(std::size_t columns, std::uint64_t seed) {
  dhyfd::Random rng(seed ^ 0x7365656473756666ull);
  std::vector<std::string> suffix;
  for (std::size_t c = 0; c < columns; ++c) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "#%llx",
                  static_cast<unsigned long long>(rng.next_u64() & 0xffffff));
    suffix.push_back(buf);
  }
  return suffix;
}

}  // namespace

void ApplySeed(dhyfd::RawTable* table, std::uint64_t seed, bool shuffle) {
  std::vector<std::string> suffix = SeedSuffixes(table->header.size(), seed);
  for (std::vector<std::string>& row : table->rows) SeedRow(&row, suffix);
  if (shuffle) {
    dhyfd::Random rng(seed ^ 0x73687566666c65ull);
    for (std::size_t i = table->rows.size(); i > 1; --i) {
      std::swap(table->rows[i - 1], table->rows[rng.next_below(i)]);
    }
  }
}

// ---- profile_wide / profile_tall -------------------------------------------

namespace {

struct ProfileShape {
  const char* dataset;
  int rows;
  int threads;
};

RunResult RunProfile(const RunConfig& config, const ProfileShape& shape) {
  RunResult result;
  std::vector<double> setups;
  dhyfd::RawTable table;
  for (int i = 0; i < kSetups; ++i) {
    // Set-up is what a user pays before profiling: make the data and load
    // it from CSV text, as ReadCsvFile would.
    // Each copy is dropped as soon as the next exists, so that set-up does
    // not raise the peak RSS above what profiling needs.
    table = dhyfd::RawTable();
    double t0 = NowSeconds();
    std::string csv;
    {
      dhyfd::RawTable generated = dhyfd::GenerateRawTable(
          dhyfd::MakeBenchmarkSpec(shape.dataset, shape.rows));
      ApplySeed(&generated, config.seed, /*shuffle=*/true);
      csv = dhyfd::WriteCsvString(generated);
    }
    table = dhyfd::ParseCsvString(csv);
    setups.push_back(NowSeconds() - t0);
  }

  dhyfd::ThreadPool pool(shape.threads);
  dhyfd::ProfileOptions options;
  options.parallelism = shape.threads;
  options.worker_pool = shape.threads > 1 ? &pool : nullptr;

  std::vector<std::uint64_t> digests;
  dhyfd::ProfileReport report;
  if (config.trace) {
    ProbeOutcome probe = ProbePipelineLayers(table, options,
                                             0.8 * config.seconds, 2, &result);
    digests = std::move(probe.digests);
    report = std::move(probe.report);
    SetServeLayersUnused(&result);
  } else {
    // The first call is not set apart as warm-up: it is timed like every
    // other call, and the median keeps one slow first call from deciding.
    dhyfd::Profiler profiler(options);
    std::vector<double> latencies;
    double start = NowSeconds();
    while (latencies.size() < 3 || NowSeconds() - start < config.seconds) {
      double t0 = NowSeconds();
      dhyfd::ProfileReport r = profiler.profile(table);
      latencies.push_back(NowSeconds() - t0);
      digests.push_back(ProfileDigest(r));
      if (latencies.size() == 1) report = std::move(r);
    }
    double busy = 0;
    for (double s : latencies) busy += s;
    result.set("latency_p50_ms", Quantile(latencies, 0.5) * 1e3, "ms");
    result.set("throughput_per_s", static_cast<double>(latencies.size()) / busy,
               "1/s");
    result.set("peak_rss_mb", PeakRssMb(), "MB");
    result.set("setup_s", Quantile(setups, 0.5), "s");
    result.samples["latency"] = static_cast<std::int64_t>(latencies.size());
  }

  // Oracles: every call produced the same outputs, and those outputs hold
  // on the data under the oracle's own re-coding.
  result.attempted = static_cast<std::int64_t>(digests.size());
  for (std::uint64_t d : digests) {
    if (d != digests.front()) ++result.failed;
  }
  if (result.failed > 0) result.fail("profile digests differ between calls");
  std::vector<std::string> wrong =
      CheckCoverSample(CodedTable(table), report.discovery.fds, report.canonical,
                       config.seed, 8);
  if (!wrong.empty()) {
    result.failed = result.attempted;
    for (const std::string& w : wrong) result.fail(w);
  }
  return result;
}

}  // namespace

RunResult RunProfileWide(const RunConfig& config) {
  return RunProfile(config, {"diabetic", 1000, 1});
}

RunResult RunProfileTall(const RunConfig& config) {
  return RunProfile(config, {"ncvoter", 100000, BenchThreads()});
}

// ---- serve_live -------------------------------------------------------------

namespace {

using dhyfd::net::BlockingClient;

constexpr int kInitialRows = 2000;
constexpr int kWeatherRows = 3000;
constexpr int kReaders = 2;
// The writer is paced: one batch every 1/kBatchesPerSecond seconds, or at
// once when the previous batch took longer. A back-to-back writer would
// hold the profile lock almost all the time, and every read would just
// measure the wait for the current batch.
constexpr double kBatchesPerSecond = 10;
constexpr std::uint32_t kTopK = 10;
const char kHost[] = "127.0.0.1";
const char kLive[] = "live";
const char kStatic[] = "weather";

struct ServeData {
  dhyfd::UpdateStream stream;
  dhyfd::RawTable weather;
};

ServeData MakeServeData(std::uint64_t seed, int batches) {
  ServeData data;
  dhyfd::UpdateStreamSpec spec;
  spec.base = dhyfd::MakeBenchmarkSpec("abalone", kInitialRows);
  spec.initial_rows = kInitialRows;
  spec.num_batches = batches;
  spec.batch_size = 32;
  spec.delete_fraction = 0.3;
  spec.seed ^= seed;
  data.stream = dhyfd::GenerateUpdateStream(spec);
  // Row order stays: delete ids name initial rows by position.
  ApplySeed(&data.stream.initial, seed, /*shuffle=*/false);
  std::vector<std::string> suffix =
      SeedSuffixes(data.stream.initial.header.size(), seed);
  for (dhyfd::UpdateBatch& batch : data.stream.batches) {
    for (std::vector<std::string>& row : batch.inserts) SeedRow(&row, suffix);
  }
  data.weather = dhyfd::GenerateRawTable(
      dhyfd::MakeBenchmarkSpec("weather", kWeatherRows));
  ApplySeed(&data.weather, seed, /*shuffle=*/true);
  return data;
}

/// The in-process service stack behind one loopback server. Every pool is
/// sized explicitly: one scheduler worker (the job client keeps one job in
/// flight), one live-store worker (one live dataset is one strand) and the
/// server's fixed ops pool.
struct ServeStack {
  dhyfd::MetricsRegistry metrics;
  dhyfd::DatasetRegistry datasets{&metrics};
  dhyfd::JobScheduler scheduler{&datasets, &metrics, MakeSchedulerOptions()};
  dhyfd::LiveStore live{&metrics, 1};
  dhyfd::net::ProfilingServer server{&scheduler, &live, &datasets, &metrics,
                                     MakeServerOptions()};

  ServeStack() { server.start(); }
  ~ServeStack() {
    server.shutdown();
    live.shutdown();
    scheduler.shutdown();
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  static dhyfd::SchedulerOptions MakeSchedulerOptions() {
    dhyfd::SchedulerOptions options;
    options.num_threads = 1;
    return options;
  }
  static dhyfd::net::ServerOptions MakeServerOptions() {
    dhyfd::net::ServerOptions options;
    options.max_connections = 32;
    options.quota_rate = 0;  // back-to-back clients must not be throttled
    return options;
  }
};

std::unique_ptr<ServeStack> StartStack(const ServeData& data) {
  auto stack = std::make_unique<ServeStack>();
  BlockingClient admin(kHost, stack->server.port(), "setup");
  admin.register_dataset(kLive, dhyfd::WriteCsvString(data.stream.initial),
                         /*live=*/true);
  admin.register_dataset(kStatic, dhyfd::WriteCsvString(data.weather),
                         /*live=*/false);
  admin.goodbye();
  return stack;
}

using RankedList = std::vector<std::pair<std::string, double>>;

RankedList FromWire(const std::vector<dhyfd::net::RankedFdMsg>& top) {
  RankedList out;
  for (const auto& r : top) out.emplace_back(r.fd, r.redundancy);
  return out;
}

RankedList FromRanking(const std::vector<dhyfd::FdRedundancy>& ranking,
                       std::size_t limit) {
  RankedList out;
  for (std::size_t i = 0; i < ranking.size() && i < limit; ++i) {
    out.emplace_back(ranking[i].fd.to_string(),
                     static_cast<double>(dhyfd::RedundancyCount(
                         ranking[i], dhyfd::RedundancyMode::kExcludingNullRhs)));
  }
  return out;
}

/// Latencies of one operation kind, successful operations only.
struct OpLog {
  std::vector<double> ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_error;

  void error(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

struct LoopLogs {
  OpLog reads, writes, jobs;
  std::size_t batches_applied = 0;
  double wall_seconds = 0;
  /// Read as the clients finish, before the samples are merged and copied.
  double peak_rss_mb = 0;
};

bool ReadLooksRight(const dhyfd::net::CoverResultMsg& r) {
  if (r.total == 0 || r.top.size() != std::min<std::size_t>(kTopK, r.total)) {
    return false;
  }
  for (std::size_t i = 1; i < r.top.size(); ++i) {
    if (r.top[i].redundancy > r.top[i - 1].redundancy) return false;
  }
  return true;
}

/// The closed loop: two readers, one writer and one job client, each on its
/// own connection and each sending its next request only after the previous
/// answer.
void RunLoop(const ServeStack& stack, const ServeData& data,
             const RankedList& expected_top, double seconds, LoopLogs* logs) {
  const std::uint16_t port = stack.server.port();
  std::atomic<bool> stop{false};
  std::vector<OpLog> readers(kReaders);
  std::vector<std::thread> threads;
  // Stops and joins the clients on every path out, a failed thread start
  // included.
  struct StopAndJoin {
    std::atomic<bool>& stop;
    std::vector<std::thread>& threads;
    ~StopAndJoin() {
      stop.store(true);
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{stop, threads};
  auto timed = [](OpLog& log, auto&& op) {
    ++log.attempted;
    double t0 = NowSeconds();
    try {
      if (op()) {
        log.ms.push_back((NowSeconds() - t0) * 1e3);
      } else {
        log.error("wrong output");
      }
      return true;
    } catch (const std::exception& e) {
      log.error(e.what());
      return false;
    }
  };
  for (int i = 0; i < kReaders; ++i) {
    threads.emplace_back([&, i] {
      OpLog& log = readers[static_cast<std::size_t>(i)];
      // Room for the samples up front, so that growing the vector does not
      // add a throughput-dependent copy to the peak RSS.
      log.ms.reserve(static_cast<std::size_t>(seconds * 100000));
      try {
        BlockingClient client(kHost, port, "reader-" + std::to_string(i));
        while (!stop.load()) {
          timed(log, [&] { return ReadLooksRight(client.query_cover(kLive, kTopK)); });
        }
        client.goodbye();
      } catch (const std::exception& e) {
        log.error(e.what());
      }
    });
  }
  threads.emplace_back([&] {
    OpLog& log = logs->writes;
    try {
      BlockingClient client(kHost, port, "writer");
      const auto& batches = data.stream.batches;
      const double paced_start = NowSeconds();
      for (std::size_t b = 0; b < batches.size() && !stop.load(); ++b) {
        double due = paced_start + static_cast<double>(b) / kBatchesPerSecond;
        while (!stop.load() && NowSeconds() < due) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (stop.load()) break;
        dhyfd::net::ApplyUpdateMsg msg;
        msg.dataset = kLive;
        msg.inserts = batches[b].inserts;
        msg.deletes = batches[b].deletes;
        // A failed write leaves the live state unknown: stop writing, and
        // the final-cover oracle checks what was acknowledged.
        if (!timed(log, [&] {
              client.apply_update(msg);
              return true;
            })) {
          break;
        }
        logs->batches_applied = b + 1;
      }
      client.goodbye();
    } catch (const std::exception& e) {
      log.error(e.what());
    }
  });
  threads.emplace_back([&] {
    OpLog& log = logs->jobs;
    try {
      BlockingClient client(kHost, port, "jobs");
      dhyfd::net::SubmitDiscoveryMsg msg;
      msg.dataset = kStatic;
      msg.top_k = kTopK;
      while (!stop.load()) {
        timed(log, [&] {
          dhyfd::net::DiscoveryResultMsg r = client.submit_discovery(msg);
          return r.state == "done" && FromWire(r.top) == expected_top;
        });
      }
      client.goodbye();
    } catch (const std::exception& e) {
      log.error(e.what());
    }
  });
  double start = NowSeconds();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  logs->wall_seconds = NowSeconds() - start;
  logs->peak_rss_mb = PeakRssMb();
  for (const OpLog& r : readers) {
    logs->reads.ms.insert(logs->reads.ms.end(), r.ms.begin(), r.ms.end());
    logs->reads.attempted += r.attempted;
    logs->reads.failed += r.failed;
    if (logs->reads.first_error.empty()) logs->reads.first_error = r.first_error;
  }
}

/// Server-side mean in ms of one registry histogram between two snapshots:
/// exact sum/count, never the decade-bucket quantiles.
double MeanMsBetween(const std::map<std::string, dhyfd::Histogram::Snapshot>& before,
                     const std::map<std::string, dhyfd::Histogram::Snapshot>& after,
                     const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  std::int64_t count = a->second.count;
  double sum = a->second.sum;
  auto b = before.find(name);
  if (b != before.end()) {
    count -= b->second.count;
    sum -= b->second.sum;
  }
  return count > 0 ? sum / static_cast<double>(count) * 1e3 : 0;
}

/// Replays the acknowledged batches on a LiveProfile of its own: the incr
/// layer timed from outside, with BatchStats for its work counts. Returns
/// the replayed cover for the final-cover oracle's cross-check.
dhyfd::FdSet ReplayIncr(const ServeData& data, std::size_t batches,
                        RunResult* out) {
  dhyfd::LiveProfile profile(data.stream.initial);
  std::vector<double> ms;
  double rebuilt = 0, validations = 0, pairs = 0, reranked = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    double t0 = NowSeconds();
    dhyfd::CoverDelta delta = profile.apply(data.stream.batches[b]);
    ms.push_back((NowSeconds() - t0) * 1e3);
    rebuilt += delta.stats.rebuilt ? 1 : 0;
    validations += static_cast<double>(delta.stats.validations);
    pairs += static_cast<double>(delta.stats.pairs_compared);
    reranked += static_cast<double>(delta.stats.fds_reranked);
  }
  const double n = std::max<double>(1, static_cast<double>(batches));
  out->set("incr.apply_p50_ms", Quantile(ms, 0.5), "ms");
  out->set("incr.apply_p90_ms", Quantile(ms, 0.9), "ms");
  out->set("incr.rebuild_share", rebuilt / n, "share");
  out->set("incr.validations", validations / n, "count");
  out->set("incr.pairs_compared", pairs / n, "count");
  out->set("incr.fds_reranked", reranked / n, "count");
  out->samples["incr.apply"] = static_cast<std::int64_t>(ms.size());
  return profile.cover();
}

/// The final live cover, with its redundancy counts, must equal a
/// from-scratch DHyFD run (ranked by RankFds) on the table the stream left.
void CheckFinalCover(const ServeStack& stack, const ServeData& data,
                     std::size_t applied, RunResult* result) {
  BlockingClient client(kHost, stack.server.port(), "oracle");
  RankedList live = FromWire(client.query_cover(kLive, 0).top);
  client.goodbye();
  dhyfd::Relation relation =
      dhyfd::EncodeRelation(ReplayStream(data.stream.initial,
                                         data.stream.batches, applied))
          .relation;
  dhyfd::DiscoveryResult scratch = dhyfd::MakeDiscovery("dhyfd")->discover(relation);
  RankedList expected = FromRanking(dhyfd::RankFds(relation, scratch.fds),
                                    scratch.fds.fds.size());
  std::sort(live.begin(), live.end());
  std::sort(expected.begin(), expected.end());
  if (live != expected) {
    result->failed += static_cast<std::int64_t>(applied);
    result->fail("final live cover (" + std::to_string(live.size()) +
                 " FDs) differs from a from-scratch run (" +
                 std::to_string(expected.size()) + " FDs)");
  }
}

void Account(const OpLog& log, const char* kind, RunResult* result) {
  result->attempted += log.attempted;
  result->failed += log.failed;
  if (log.failed > 0) {
    result->fail(std::string(kind) + ": " + std::to_string(log.failed) +
                 " failed, first: " + log.first_error);
  }
}

}  // namespace

RunResult RunServeLive(const RunConfig& config) {
  RunResult result;
  // Enough batches that the paced writer never runs dry within the window.
  const int batches = static_cast<int>(config.seconds * kBatchesPerSecond) + 50;

  std::vector<double> setups;
  ServeData data;
  std::unique_ptr<ServeStack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    double t0 = NowSeconds();
    data = MakeServeData(config.seed, batches);
    stack = StartStack(data);
    setups.push_back(NowSeconds() - t0);
  }

  // Reference answer for every job, computed locally (not timed).
  dhyfd::ProfileReport reference = dhyfd::Profiler().profile(data.weather);
  const RankedList expected_top = FromRanking(reference.ranking, kTopK);

  LoopLogs logs;
  if (!config.trace) {
    // The main operation is the compute-bound discovery job. Reads go
    // through four thread wake-ups each, so their latency and rate follow
    // the host's scheduling delays: one reader pair measured 3.5k to 21k
    // reads/s on the same code within an hour. Reads are reported per layer
    // (client.read_*).
    RunLoop(*stack, data, expected_top, config.seconds, &logs);
    result.set("latency_p50_ms", Quantile(logs.jobs.ms, 0.5), "ms");
    result.set("throughput_per_s",
               static_cast<double>(logs.jobs.ms.size()) / logs.wall_seconds,
               "1/s");
    result.set("peak_rss_mb", logs.peak_rss_mb, "MB");
    result.set("setup_s", Quantile(setups, 0.5), "s");
  } else {
    auto before = stack->metrics.histogram_values();
    RunLoop(*stack, data, expected_top, 0.6 * config.seconds, &logs);
    auto after = stack->metrics.histogram_values();
    const double read_server_ms =
        MeanMsBetween(before, after, "net.rpc.query_cover.ok_seconds");
    result.set("client.read_p50_ms", Quantile(logs.reads.ms, 0.5), "ms");
    result.set("client.read_p90_ms", Quantile(logs.reads.ms, 0.9), "ms");
    result.set("client.read_p99_ms", Quantile(logs.reads.ms, 0.99), "ms");
    result.set("client.read_rps",
               static_cast<double>(logs.reads.ms.size()) / logs.wall_seconds,
               "1/s");
    result.set("client.write_p50_ms", Quantile(logs.writes.ms, 0.5), "ms");
    result.set("client.write_p90_ms", Quantile(logs.writes.ms, 0.9), "ms");
    result.set("client.job_p50_ms", Quantile(logs.jobs.ms, 0.5), "ms");
    result.set("client.job_p90_ms", Quantile(logs.jobs.ms, 0.9), "ms");
    result.set("service.job_queue_ms",
               MeanMsBetween(before, after, dhyfd::kObsJobsQueueSeconds), "ms");
    result.set("service.job_run_ms",
               MeanMsBetween(before, after, dhyfd::kObsJobsRunSeconds), "ms");
    result.set("service.update_run_ms",
               MeanMsBetween(before, after, dhyfd::kObsIncrBatchSeconds), "ms");
    result.set("net.read_server_ms", read_server_ms, "ms");
    result.set("net.read_gap_ms", Mean(logs.reads.ms) - read_server_ms, "ms");
    result.set("net.queue_ms",
               MeanMsBetween(before, after, dhyfd::kObsNetRpcQueueSeconds), "ms");

    // Reply bytes per read, with nothing else on the wire.
    constexpr int kProbeReads = 200;
    BlockingClient probe(kHost, stack->server.port(), "bytes-probe");
    std::int64_t tx0 = stack->metrics.counter(dhyfd::kObsNetBytesTx).value();
    for (int i = 0; i < kProbeReads; ++i) probe.query_cover(kLive, kTopK);
    std::int64_t tx1 = stack->metrics.counter(dhyfd::kObsNetBytesTx).value();
    probe.goodbye();
    result.set("net.bytes_per_read",
               static_cast<double>(tx1 - tx0) / kProbeReads, "bytes");

    // The library layers, on the table the jobs profile.
    ProbeOutcome probe_outcome = ProbePipelineLayers(
        data.weather, dhyfd::ProfileOptions(), 0.2 * config.seconds, 3, &result);
    result.attempted += static_cast<std::int64_t>(probe_outcome.digests.size());
    const std::uint64_t want = ProfileDigest(reference);
    for (std::uint64_t d : probe_outcome.digests) result.failed += d != want;
    if (result.failed > 0) {
      result.fail("probe profiles of the job table differ from the reference");
    }

    dhyfd::FdSet replayed = ReplayIncr(data, logs.batches_applied, &result);
    dhyfd::FdSet served = stack->live.cover(kLive);
    if (replayed.fds != served.fds) {
      result.fail("replayed LiveProfile cover differs from the served cover");
    }
  }
  result.samples["reads"] = static_cast<std::int64_t>(logs.reads.ms.size());
  result.samples["writes"] = static_cast<std::int64_t>(logs.writes.ms.size());
  result.samples["jobs"] = static_cast<std::int64_t>(logs.jobs.ms.size());

  Account(logs.reads, "reads", &result);
  Account(logs.writes, "writes", &result);
  Account(logs.jobs, "jobs", &result);
  CheckFinalCover(*stack, data, logs.batches_applied, &result);
  if (logs.batches_applied == data.stream.batches.size()) {
    result.fail("the writer ran out of generated batches");
  }
  return result;
}

}  // namespace perfbench
