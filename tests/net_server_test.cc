#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datagen/benchmark_data.h"
#include "net/client.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "relation/csv.h"

namespace dhyfd::net {
namespace {

std::string DemoCsv(int rows = 120) {
  return WriteCsvString(GenerateBenchmark("abalone", rows));
}

/// One fully-wired service stack plus a started server.
struct Stack {
  explicit Stack(ServerOptions options = {}, SchedulerOptions sched = {}) {
    sched.num_threads = sched.num_threads == 0 ? 2 : sched.num_threads;
    scheduler = std::make_unique<JobScheduler>(&datasets, &metrics, sched);
    live = std::make_unique<LiveStore>(&metrics, 2);
    server = std::make_unique<ProfilingServer>(scheduler.get(), live.get(),
                                               &datasets, &metrics, options);
    server->start();
  }
  ~Stack() {
    if (server) server->shutdown();
    live->shutdown();
    scheduler->shutdown();
  }

  BlockingClient connect(const std::string& name = "test-client") {
    return BlockingClient("127.0.0.1", server->port(), name,
                          /*timeout_seconds=*/30);
  }

  MetricsRegistry metrics;
  DatasetRegistry datasets{&metrics};
  std::unique_ptr<JobScheduler> scheduler;
  std::unique_ptr<LiveStore> live;
  std::unique_ptr<ProfilingServer> server;
};

/// Reads one frame from a raw socket (tests that bypass BlockingClient).
bool ReadRawFrame(Socket& s, Frame* out) {
  std::uint8_t len_bytes[kLengthPrefixBytes];
  if (!s.read_exact(len_bytes, sizeof len_bytes)) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(len_bytes[i]) << (8 * i);
  }
  std::vector<std::uint8_t> body(len);
  if (!s.read_exact(body.data(), body.size())) return false;
  out->type = static_cast<MsgType>(body[0]);
  out->request_id = 0;
  for (int i = 0; i < 8; ++i) {
    out->request_id |= static_cast<std::uint64_t>(body[1 + i]) << (8 * i);
  }
  out->payload.assign(body.begin() + kFrameHeaderBytes, body.end());
  return true;
}

TEST(NetServerTest, HelloHandshakeAndPing) {
  Stack stack;
  BlockingClient client = stack.connect();
  EXPECT_EQ(client.server_limits().protocol_version, kProtocolVersion);
  EXPECT_GT(client.server_limits().max_inflight, 0u);
  client.ping();
  EXPECT_EQ(stack.server->connections(), 1);
  client.goodbye();
}

TEST(NetServerTest, UnsupportedVersionGetsErrorThenClose) {
  Stack stack;
  // One wire version: every other hello is refused, older ones included.
  for (std::uint32_t version : {0u, 1u, 2u, 3u, 5u, 99u}) {
    SCOPED_TRACE(version);
    Socket s = ConnectTcp("127.0.0.1", stack.server->port());
    s.set_recv_timeout(30);
    HelloMsg hello;
    hello.protocol_version = version;
    s.write_all(EncodeMsgFrame(MsgType::kHello, 1, hello));
    Frame f;
    ASSERT_TRUE(ReadRawFrame(s, &f));
    ASSERT_EQ(f.type, MsgType::kError);
    WireReader r(f.payload);
    EXPECT_EQ(ErrorMsg::decode(r).code, ErrCode::kUnsupportedVersion);
    EXPECT_FALSE(ReadRawFrame(s, &f));  // server closed after the reply
  }
}

TEST(NetServerTest, FirstFrameMustBeHello) {
  Stack stack;
  Socket s = ConnectTcp("127.0.0.1", stack.server->port());
  s.set_recv_timeout(30);
  s.write_all(EncodeEmptyFrame(MsgType::kPing, 1));
  Frame f;
  EXPECT_FALSE(ReadRawFrame(s, &f));  // dropped without a reply
  EXPECT_GE(stack.metrics.counter("net.protocol_errors").value(), 1);
}

TEST(NetServerTest, GarbageBytesDropConnectionCleanly) {
  Stack stack;
  BlockingClient healthy = stack.connect("healthy");

  BlockingClient garbage = stack.connect("garbage");
  const char junk[] = "\xff\xff\xff\xff totally not a frame \x00\x01\x02";
  garbage.send_bytes(junk, sizeof junk);
  // The server drops us: either a clean EOF (read_frame returns false) or a
  // transport error, but never a reply and never a hung connection.
  bool dropped = false;
  try {
    Frame f;
    dropped = !garbage.read_frame(&f);
  } catch (const std::exception&) {
    dropped = true;
  }
  EXPECT_TRUE(dropped);
  EXPECT_GE(stack.metrics.counter("net.protocol_errors").value(), 1);

  // The healthy connection is completely unaffected.
  healthy.ping();
}

TEST(NetServerTest, TruncatedFrameThenCloseIsHarmless) {
  Stack stack;
  {
    Socket s = ConnectTcp("127.0.0.1", stack.server->port());
    HelloMsg hello;
    std::vector<std::uint8_t> frame = EncodeMsgFrame(MsgType::kHello, 1, hello);
    s.write_all(frame.data(), frame.size() / 2);  // half a frame, then RST/FIN
  }
  // Server must survive; prove it by doing real work afterwards.
  BlockingClient client = stack.connect();
  client.ping();
}

TEST(NetServerTest, RegisterQueryAndDiscoveryEndToEnd) {
  Stack stack;
  BlockingClient client = stack.connect();

  RegisterOkMsg reg = client.register_dataset("aba", DemoCsv(), /*live=*/true);
  EXPECT_EQ(reg.rows, 120u);
  EXPECT_GT(reg.cols, 0u);

  SubmitDiscoveryMsg submit;
  submit.dataset = "aba";
  submit.top_k = 5;
  DiscoveryResultMsg result = client.submit_discovery(submit);
  EXPECT_EQ(result.state, "done");
  EXPECT_GT(result.cover_size, 0u);
  EXPECT_FALSE(result.top.empty());
  EXPECT_GE(result.top[0].redundancy, result.top.back().redundancy);

  CoverResultMsg cover = client.query_cover("aba", 3);
  EXPECT_GT(cover.total, 0u);
  EXPECT_LE(cover.top.size(), 3u);
}

TEST(NetServerTest, SubmitQueryEndToEnd) {
  Stack stack;
  BlockingClient client = stack.connect();
  client.register_dataset("aba", DemoCsv(), /*live=*/false);

  SubmitQueryMsg submit;
  submit.dataset = "aba";
  submit.top_k = 5;
  QueryResultMsg result = client.submit_query(submit);
  EXPECT_EQ(result.state, "done");
  EXPECT_GT(result.validations, 0u);
  EXPECT_EQ(result.total, result.fds.size());
  ASSERT_LE(result.fds.size(), 5u);
  ASSERT_FALSE(result.fds.empty());
  for (std::size_t i = 1; i < result.fds.size(); ++i) {
    EXPECT_GE(result.fds[i - 1].redundancy, result.fds[i].redundancy);
  }

  // Approximate + arity-bounded also answers cleanly.
  submit.top_k = 0;
  submit.epsilon = 0.1;
  submit.max_lhs = 2;
  QueryResultMsg approx = client.submit_query(submit);
  EXPECT_EQ(approx.state, "done");
  EXPECT_EQ(approx.total, approx.fds.size());
}

TEST(NetServerTest, HostileQuerySpecGetsBadRequestNotDisconnect) {
  Stack stack;
  BlockingClient client = stack.connect();
  client.register_dataset("aba", DemoCsv(), /*live=*/false);

  SubmitQueryMsg submit;
  submit.dataset = "aba";
  submit.epsilon = -7.5;  // well-framed, semantically hostile
  try {
    client.submit_query(submit);
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrCode::kBadRequest);
  }

  submit.epsilon = 0;
  submit.max_lhs = 0xffffffffu;  // absurd arity bound
  try {
    client.submit_query(submit);
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrCode::kBadRequest);
  }

  // Scope wider than the schema is caught when the job resolves the
  // dataset; still a clean bad-request, not a dropped connection.
  submit.max_lhs = 0;
  submit.include_columns = {0, 200};
  try {
    client.submit_query(submit);
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrCode::kBadRequest);
  }

  // The connection survived all three rejections.
  client.ping();
  SubmitQueryMsg good;
  good.dataset = "aba";
  good.top_k = 3;
  EXPECT_EQ(client.submit_query(good).state, "done");
}

TEST(NetServerTest, OutOfRangeNullSemanticsGetsBadRequest) {
  Stack stack;
  BlockingClient client = stack.connect();
  auto expect_bad_request = [](const std::function<void()>& call) {
    try {
      call();
      FAIL() << "expected RpcError";
    } catch (const RpcError& e) {
      EXPECT_EQ(e.code(), ErrCode::kBadRequest);
    }
  };
  // Only 0 (null = null) and 1 (null != null) name a semantics. Byte 2 is
  // refused on each of the three requests that carry one, and nothing is
  // registered.
  for (bool live : {true, false}) {
    expect_bad_request([&] {
      client.register_dataset("bad", DemoCsv(), live, /*semantics=*/2);
    });
  }
  EXPECT_FALSE(stack.live->contains("bad"));
  EXPECT_FALSE(stack.datasets.contains("bad"));

  client.register_dataset("aba", DemoCsv(), /*live=*/false);
  SubmitDiscoveryMsg discovery;
  discovery.dataset = "aba";
  discovery.semantics = 2;
  expect_bad_request([&] { client.submit_discovery(discovery); });
  SubmitQueryMsg query;
  query.dataset = "aba";
  query.semantics = 2;
  expect_bad_request([&] { client.submit_query(query); });

  // The connection survived, and byte 1 still runs.
  client.ping();
  discovery.semantics = 1;
  EXPECT_EQ(client.submit_discovery(discovery).state, "done");
  query.semantics = 1;
  EXPECT_EQ(client.submit_query(query).state, "done");
}

TEST(NetServerTest, InputWidthErrorsAreBadRequests) {
  Stack stack;
  BlockingClient client = stack.connect();

  // 257 columns do not fit an AttributeSet: the upload is refused, live or
  // not, and nothing is registered.
  RawTable wide;
  for (int c = 0; c < 257; ++c) wide.header.push_back("c" + std::to_string(c));
  wide.rows.assign(2, std::vector<std::string>(257, "v"));
  for (bool live : {true, false}) {
    try {
      client.register_dataset("wide", WriteCsvString(wide), live);
      FAIL() << "expected RpcError";
    } catch (const RpcError& e) {
      EXPECT_EQ(e.code(), ErrCode::kBadRequest);
    }
  }
  EXPECT_FALSE(stack.live->contains("wide"));
  EXPECT_FALSE(stack.datasets.contains("wide"));

  // A failed upload does not replace a good dataset of the same name.
  client.register_dataset("kept", DemoCsv(), /*live=*/false);
  try {
    client.register_dataset("kept", WriteCsvString(wide), /*live=*/false);
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrCode::kBadRequest);
  }
  SubmitQueryMsg kept;
  kept.dataset = "kept";
  EXPECT_EQ(client.submit_query(kept).state, "done");

  // A short insert row is refused before the live dataset changes.
  client.register_dataset("aba", DemoCsv(), /*live=*/true);
  FdSet cover = stack.live->cover("aba");
  RowId rows = stack.live->live_rows("aba");
  ApplyUpdateMsg update;
  update.dataset = "aba";
  update.inserts.push_back({"only-one-cell"});
  try {
    client.apply_update(update);
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrCode::kBadRequest);
  }
  EXPECT_EQ(stack.live->live_rows("aba"), rows);
  EXPECT_EQ(stack.live->cover("aba").fds, cover.fds);
  client.ping();
  SubmitQueryMsg good;
  good.dataset = "aba";
  good.top_k = 3;
  EXPECT_EQ(client.submit_query(good).state, "done");
}

TEST(NetServerTest, UnknownDatasetErrors) {
  Stack stack;
  BlockingClient client = stack.connect();
  // Jobs on a missing dataset are refused at admission, before they take
  // a window slot or a scheduler slot.
  SubmitDiscoveryMsg submit;
  submit.dataset = "missing";
  try {
    client.submit_discovery(submit);
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrCode::kUnknownDataset);
  }
  SubmitQueryMsg query;
  query.dataset = "missing";
  try {
    client.submit_query(query);
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrCode::kUnknownDataset);
  }
  EXPECT_EQ(stack.metrics.counter("jobs.submitted").value(), 0);
  try {
    client.query_cover("missing");
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrCode::kUnknownDataset);
  }
  // Update batches are refused at admission too: the live store never sees
  // them, so they count as no failed update job.
  ApplyUpdateMsg update;
  update.dataset = "missing";
  update.deletes = {0};
  try {
    client.apply_update(update);
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrCode::kUnknownDataset);
  }
  EXPECT_EQ(stack.metrics.counter("incr.jobs_failed").value(), 0);
}

TEST(NetServerTest, ConcurrentClientsAllGetAnswers) {
  Stack stack;
  {
    BlockingClient setup = stack.connect("setup");
    setup.register_dataset("aba", DemoCsv(), /*live=*/false);
  }
  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&stack, &ok, i] {
      BlockingClient c = stack.connect("worker-" + std::to_string(i));
      SubmitDiscoveryMsg submit;
      submit.dataset = "aba";
      submit.top_k = 3;
      DiscoveryResultMsg result = c.submit_discovery(submit);
      if (result.state == "done" && result.cover_size > 0) ok.fetch_add(1);
      c.goodbye();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
}

TEST(NetServerTest, DeadlineMapsToJobTimeLimit) {
  Stack stack;
  BlockingClient client = stack.connect();
  // Big enough that full discovery cannot finish in 1 ms.
  client.register_dataset("big", WriteCsvString(GenerateBenchmark("abalone", 4000)),
                          /*live=*/false);
  SubmitDiscoveryMsg submit;
  submit.dataset = "big";
  submit.deadline_ms = 1;
  submit.top_k = 5;
  DiscoveryResultMsg result = client.submit_discovery(submit);
  EXPECT_EQ(result.state, "deadline_expired") << "1 ms deadline should expire";
  // A stopped stage returns nothing: no canonical cover, no ranked FDs.
  EXPECT_EQ(result.canonical_size, 0u);
  EXPECT_TRUE(result.top.empty());

  // A top-k query job past its deadline answers no partial FD list either.
  SubmitQueryMsg query;
  query.dataset = "big";
  query.deadline_ms = 1;
  query.top_k = 1000;
  QueryResultMsg answer = client.submit_query(query);
  EXPECT_EQ(answer.state, "deadline_expired");
  EXPECT_EQ(answer.total, 0u);
  EXPECT_TRUE(answer.fds.empty());

  submit.deadline_ms = 0;  // control: no deadline completes normally
  result = client.submit_discovery(submit);
  EXPECT_EQ(result.state, "done");
  EXPECT_GT(result.canonical_size, 0u);
  EXPECT_EQ(result.top.size(), 5u);
  EXPECT_EQ(stack.metrics.counter("jobs.deadline_expired").value(), 2);
}

TEST(NetServerTest, QuotaExceededAfterBurst) {
  ServerOptions options;
  options.quota_rate = 0.001;  // effectively no refill during the test
  options.quota_burst = 3;
  Stack stack(options);
  BlockingClient client = stack.connect();
  for (int i = 0; i < 3; ++i) {
    // Unknown dataset answers an error, but it consumed a token all the same.
    EXPECT_THROW(client.query_cover("nope_is_fine_quota_wise", 0), RpcError);
  }
  // 4th real request: bucket empty.
  try {
    client.query_cover("x");
    FAIL() << "expected quota rejection";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrCode::kQuotaExceeded);
  }
  // Pings are quota-exempt: the connection itself still works.
  client.ping();
  EXPECT_GE(stack.metrics.counter("net.quota_rejects").value(), 1);
}

template <typename Msg>
std::vector<std::uint8_t> Payload(const Msg& msg) {
  WireWriter w;
  msg.encode(w);
  return w.take();
}

TEST(NetServerTest, InflightWindowRejectsPipelinedExcess) {
  ServerOptions options;
  options.max_inflight = 1;
  Stack stack(options);
  BlockingClient client = stack.connect();
  client.register_dataset("aba", DemoCsv(), /*live=*/true);

  SubmitDiscoveryMsg discovery;
  discovery.dataset = "aba";
  RegisterDatasetMsg reg;
  reg.name = "tiny";
  reg.csv_text = "a,b\n1,2\n";
  QueryCoverMsg cover;
  cover.dataset = "aba";
  ApplyUpdateMsg update;
  update.dataset = "aba";
  update.deletes = {0};
  SubmitQueryMsg query;
  query.dataset = "aba";
  struct Case {
    MsgType type;
    std::vector<std::uint8_t> payload;
    MsgType answer;
  };
  const std::vector<Case> cases = {
      {MsgType::kSubmitDiscovery, Payload(discovery), MsgType::kDiscoveryResult},
      {MsgType::kRegisterDataset, Payload(reg), MsgType::kRegisterOk},
      {MsgType::kQueryCover, Payload(cover), MsgType::kCoverResult},
      {MsgType::kApplyUpdate, Payload(update), MsgType::kUpdateOk},
      {MsgType::kSubmitQuery, Payload(query), MsgType::kQueryResult},
  };
  std::uint64_t id = 100;
  for (const Case& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.type));
    // Pipeline two requests without reading; the second must bounce off
    // the in-flight window. Both frames go out in ONE write so the server
    // dispatches them back-to-back from a single read — sent separately,
    // the first can finish (and release the window) before the second
    // arrives.
    std::int64_t rejects_before =
        stack.metrics.counter("net.inflight_rejects").value();
    std::uint64_t first = ++id;
    std::uint64_t second = ++id;
    std::vector<std::uint8_t> pipelined = EncodeFrame(c.type, first, c.payload);
    std::vector<std::uint8_t> next = EncodeFrame(c.type, second, c.payload);
    pipelined.insert(pipelined.end(), next.begin(), next.end());
    client.send_bytes(pipelined.data(), pipelined.size());

    bool saw_result = false, saw_reject = false;
    for (int i = 0; i < 2; ++i) {
      Frame f;
      ASSERT_TRUE(client.read_frame(&f));
      if (f.type == c.answer) {
        EXPECT_EQ(f.request_id, first);
        saw_result = true;
      } else {
        ASSERT_EQ(f.type, MsgType::kError);
        EXPECT_EQ(f.request_id, second);
        WireReader r(f.payload);
        EXPECT_EQ(ErrorMsg::decode(r).code, ErrCode::kTooManyInFlight);
        saw_reject = true;
      }
    }
    EXPECT_TRUE(saw_result);
    EXPECT_TRUE(saw_reject);
    EXPECT_GT(stack.metrics.counter("net.inflight_rejects").value(),
              rejects_before);
  }
}

/// Holds a scheduler's workers: every job carrying stage_hook() blocks at
/// its first stage boundary until release().
class WorkerGate {
 public:
  std::function<void(ProfileStage, double)> stage_hook() {
    return [this](ProfileStage, double) {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    };
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void release() {
    std::unique_lock<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

void WaitForCount(const Counter& counter, std::int64_t at_least) {
  while (counter.value() < at_least) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(NetServerTest, SchedulerBackstopAnswersServerBusy) {
  SchedulerOptions sched;
  sched.num_threads = 1;
  sched.max_pending = 1;
  Stack stack({}, sched);
  BlockingClient client = stack.connect();
  client.register_dataset("aba", DemoCsv(), /*live=*/false);

  // Deterministically occupy the single worker: a directly-submitted job
  // whose stage hook blocks until we let go.
  WorkerGate gate;
  ProfileJob blocker;
  blocker.dataset = "aba";
  blocker.options.stage_hook = gate.stage_hook();
  JobHandlePtr running = stack.scheduler->submit(blocker);
  gate.wait_entered();
  // Fill the single pending slot.
  ProfileJob filler;
  filler.dataset = "aba";
  JobHandlePtr queued = stack.scheduler->submit(filler);
  ASSERT_FALSE(queued->rejected());

  // The client's job has nowhere to go: admission backstop says busy.
  SubmitDiscoveryMsg submit;
  submit.dataset = "aba";
  try {
    client.submit_discovery(submit);
    FAIL() << "expected server-busy rejection";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrCode::kServerBusy);
  }
  EXPECT_GE(stack.metrics.counter("net.busy_rejects").value(), 1);
  EXPECT_GE(stack.metrics.counter("jobs.rejected").value(), 1);

  gate.release();
  running->wait();
  queued->wait();
}

TEST(NetServerTest, ShutdownAnswersInFlightRequests) {
  SchedulerOptions sched;
  sched.num_threads = 1;
  ServerOptions options;
  // Far more than the two answers need, even under a sanitizer; the drain
  // ends as soon as they are delivered.
  options.drain_seconds = 120;
  Stack stack(options, sched);
  {
    BlockingClient setup = stack.connect("setup");
    setup.register_dataset("aba", DemoCsv(), /*live=*/false);
  }
  const std::string diabetic = WriteCsvString(GenerateBenchmark("diabetic", 1000));

  // Hold the single worker, so the client's job waits in the queue.
  WorkerGate gate;
  ProfileJob blocker;
  blocker.dataset = "aba";
  blocker.options.stage_hook = gate.stage_hook();
  JobHandlePtr running = stack.scheduler->submit(blocker);
  gate.wait_entered();

  BlockingClient watcher = stack.connect("watcher");
  std::string job_error = "no answer";
  std::string upload_error = "no answer";
  DiscoveryResultMsg job;
  RegisterOkMsg upload;
  std::thread job_client([&] {
    try {
      BlockingClient client = stack.connect("job");
      SubmitDiscoveryMsg submit;
      submit.dataset = "aba";
      submit.top_k = 3;
      job = client.submit_discovery(submit);
      job_error.clear();
    } catch (const std::exception& e) {
      job_error = e.what();
    }
  });
  WaitForCount(stack.metrics.counter("jobs.submitted"), 2);

  // The upload's live discovery runs on the ops pool. The loop admits a
  // request in the same turn that counts it, before it looks at the stop
  // flag again.
  const std::int64_t served = stack.metrics.counter("net.requests").value();
  std::thread uploader([&] {
    try {
      BlockingClient client = stack.connect("uploader");
      upload = client.register_dataset("dia", diabetic, /*live=*/true);
      upload_error.clear();
    } catch (const std::exception& e) {
      upload_error = e.what();
    }
  });
  WaitForCount(stack.metrics.counter("net.requests"), served + 1);

  std::thread stopper([&] { stack.server->shutdown(); });
  // The drain has started once the idle watcher's ping is refused; a request
  // sent during the drain is answered shutting_down, not left to EOF.
  for (;;) {
    try {
      watcher.ping();
    } catch (const RpcError& e) {
      EXPECT_EQ(e.code(), ErrCode::kShuttingDown) << e.what();
      break;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "a ping sent during the drain got no answer: " << e.what();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  gate.release();
  job_client.join();
  uploader.join();
  stopper.join();

  EXPECT_EQ(job_error, "");
  EXPECT_EQ(job.state, "done");
  EXPECT_EQ(upload_error, "");
  EXPECT_EQ(upload.rows, 1000u);
  EXPECT_EQ(running->state(), JobState::kDone);
  EXPECT_EQ(stack.server->connections(), 0);
}

TEST(NetServerTest, JobFinishingAfterServerIsGoneIsHarmless) {
  SchedulerOptions sched;
  sched.num_threads = 1;
  ServerOptions options;
  options.drain_seconds = 0.2;  // the queued job outlives the drain
  Stack stack(options, sched);
  BlockingClient client = stack.connect();
  client.register_dataset("aba", DemoCsv(), /*live=*/false);

  WorkerGate gate;
  ProfileJob blocker;
  blocker.dataset = "aba";
  blocker.options.stage_hook = gate.stage_hook();
  JobHandlePtr running = stack.scheduler->submit(blocker);
  gate.wait_entered();

  // Submitted through the server, then left waiting behind the blocker.
  SubmitDiscoveryMsg submit;
  submit.dataset = "aba";
  client.send_frame(MsgType::kSubmitDiscovery, 77, Payload(submit));
  WaitForCount(stack.metrics.counter("jobs.submitted"), 2);

  stack.server.reset();
  // The server's job now finishes; its continuation posts into an inbox
  // nobody reads.
  gate.release();
  stack.scheduler->wait_all();
  EXPECT_EQ(running->state(), JobState::kDone);
  EXPECT_EQ(stack.metrics.counter("jobs.completed").value(), 2);
}

TEST(NetServerTest, SubscriberReceivesCoverDeltas) {
  Stack stack;
  BlockingClient writer = stack.connect("writer");
  writer.register_dataset("aba", DemoCsv(), /*live=*/true);

  BlockingClient sub = stack.connect("subscriber");
  std::uint32_t granted = 0;
  std::uint64_t sub_id = sub.subscribe("aba", /*initial_credits=*/16, &granted);
  EXPECT_EQ(granted, 16u);

  // A batch that changes the relation enough to touch the cover.
  ApplyUpdateMsg update;
  update.dataset = "aba";
  RawTable extra = GenerateBenchmark("abalone", 140);
  for (int i = 120; i < 140; ++i) update.inserts.push_back(extra.rows[i]);
  UpdateOkMsg applied = writer.apply_update(update);
  EXPECT_GE(applied.seconds, 0.0);

  StreamEvent ev;
  bool got_update = false;
  for (int i = 0; i < 100 && !got_update; ++i) {
    if (!sub.poll_event(&ev, 0.2)) continue;
    if (ev.kind == StreamEvent::Kind::kCoverUpdate) {
      EXPECT_EQ(ev.sub_id, sub_id);
      EXPECT_EQ(ev.update.dataset, "aba");
      got_update = true;
    }
  }
  EXPECT_TRUE(got_update) << "no cover update within 20 s";

  sub.unsubscribe(sub_id);
  bool got_end = false;
  for (int i = 0; i < 100 && !got_end; ++i) {
    if (!sub.poll_event(&ev, 0.2)) continue;
    if (ev.kind == StreamEvent::Kind::kStreamEnd) {
      EXPECT_EQ(ev.end.reason, StreamEndReason::kUnsubscribed);
      got_end = true;
    }
  }
  EXPECT_TRUE(got_end);
}

TEST(NetServerTest, SlowConsumerIsDisconnectedWithoutStallingOthers) {
  ServerOptions options;
  options.max_buffered_events = 2;  // tiny buffer: overflow after 2 stalls
  options.heartbeat_seconds = 0;
  Stack stack(options);
  BlockingClient writer = stack.connect("writer");
  writer.register_dataset("aba", DemoCsv(), /*live=*/true);

  // The fast subscriber holds plenty of credits; the slow one has a single
  // credit and never grants more.
  BlockingClient fast = stack.connect("fast");
  std::uint64_t fast_id = fast.subscribe("aba", 64);
  BlockingClient slow = stack.connect("slow");
  std::uint64_t slow_id = slow.subscribe("aba", 1);

  // Enough batches to blow the slow consumer's 1 credit + 2 buffer slots.
  RawTable extra = GenerateBenchmark("abalone", 220);
  int sent_batches = 0;
  for (int b = 0; b < 6; ++b) {
    ApplyUpdateMsg update;
    update.dataset = "aba";
    for (int i = 120 + b * 10; i < 130 + b * 10; ++i) {
      update.inserts.push_back(extra.rows[i]);
    }
    writer.apply_update(update);
    ++sent_batches;
  }

  // The fast subscriber keeps consuming and granting: it must see every
  // batch even while the slow consumer dies.
  int fast_updates = 0;
  StreamEvent ev;
  for (int i = 0; i < 200 && fast_updates < sent_batches; ++i) {
    if (!fast.poll_event(&ev, 0.2)) continue;
    if (ev.kind == StreamEvent::Kind::kCoverUpdate) {
      EXPECT_EQ(ev.sub_id, fast_id);
      ++fast_updates;
      fast.grant_credits(fast_id, 1);
    }
  }
  EXPECT_EQ(fast_updates, sent_batches);

  // The slow subscriber gets its single credited event, then StreamEnd
  // (slow_consumer), then the server hangs up.
  bool got_end = false;
  try {
    for (int i = 0; i < 100 && !got_end; ++i) {
      if (!slow.poll_event(&ev, 0.2)) continue;
      if (ev.kind == StreamEvent::Kind::kStreamEnd) {
        EXPECT_EQ(ev.sub_id, slow_id);
        EXPECT_EQ(ev.end.reason, StreamEndReason::kSlowConsumer);
        got_end = true;
      }
    }
  } catch (const std::exception&) {
    // Connection may already be closed once the StreamEnd was flushed —
    // only acceptable after the StreamEnd was seen.
  }
  EXPECT_TRUE(got_end);
  EXPECT_GE(stack.metrics.counter("net.slow_consumer_disconnects").value(), 1);

  // And the rest of the server is fine.
  writer.ping();
  fast.ping();
}

TEST(NetServerTest, PeerResetMidStreamDoesNotHarmOtherClients) {
  ServerOptions options;
  options.heartbeat_seconds = 0.05;  // constant writes to streaming conns
  Stack stack(options);
  BlockingClient writer = stack.connect("writer");
  writer.register_dataset("aba", DemoCsv(), /*live=*/true);

  BlockingClient fast = stack.connect("fast");
  std::uint64_t fast_id = fast.subscribe("aba", 64);

  RawTable extra = GenerateBenchmark("abalone", 240);
  int batch = 0;
  auto push_batch = [&] {
    ApplyUpdateMsg update;
    update.dataset = "aba";
    for (int i = 120 + batch * 10; i < 130 + batch * 10; ++i) {
      update.inserts.push_back(extra.rows[i]);
    }
    writer.apply_update(update);
    ++batch;
  };

  // Rounds of: subscribe, receive stream traffic, vanish without goodbye.
  // Closing with unread data pending sends RST, so the server's next
  // heartbeat or fan-out write to that socket fails mid-send. Before the
  // deferred-death fix, that write error freed the Connection while
  // iterating callers still held it (use-after-free); now it is marked
  // dead and reaped at the end of the tick.
  for (int round = 0; round < 5; ++round) {
    auto doomed = std::make_unique<BlockingClient>(
        "127.0.0.1", stack.server->port(), "doomed", /*timeout_seconds=*/5);
    doomed->subscribe("aba", 8);
    push_batch();
    doomed.reset();  // frames still unread: this close resets the socket
    push_batch();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }

  // The surviving subscriber saw every batch and the server still talks.
  int fast_updates = 0;
  StreamEvent ev;
  for (int i = 0; i < 200 && fast_updates < batch; ++i) {
    if (!fast.poll_event(&ev, 0.2)) continue;
    if (ev.kind == StreamEvent::Kind::kCoverUpdate) {
      EXPECT_EQ(ev.sub_id, fast_id);
      ++fast_updates;
      fast.grant_credits(fast_id, 1);
    }
  }
  EXPECT_EQ(fast_updates, batch);
  writer.ping();
  fast.ping();
  EXPECT_GE(stack.metrics.counter("net.conns_closed").value(), 5);
}

TEST(NetServerTest, PollEventRestoresRpcTimeout) {
  SchedulerOptions sched;
  sched.num_threads = 1;
  Stack stack({}, sched);
  BlockingClient client = stack.connect();
  client.register_dataset("aba", DemoCsv(), /*live=*/false);

  // A zero-timeout poll must return promptly: SO_RCVTIMEO of 0 means "wait
  // forever", so poll_event has to clamp it up, not pass it through.
  StreamEvent ev;
  auto poll_start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.poll_event(&ev, 0.0));
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          poll_start)
                .count(),
            5.0);

  // Narrow the socket timeout via a short poll...
  EXPECT_FALSE(client.poll_event(&ev, 0.05));

  // ...then hold the single worker hostage for much longer than that poll
  // bound. The next RPC's answer cannot arrive until the release; it must
  // still succeed because poll_event restored the constructor's timeout.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool release = false;
  bool entered = false;
  ProfileJob blocker;
  blocker.dataset = "aba";
  blocker.options.stage_hook = [&](ProfileStage, double) {
    std::unique_lock<std::mutex> lock(gate_mu);
    entered = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return release; });
  };
  JobHandlePtr running = stack.scheduler->submit(blocker);
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return entered; });
  }
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    std::unique_lock<std::mutex> lock(gate_mu);
    release = true;
    gate_cv.notify_all();
  });
  SubmitDiscoveryMsg submit;
  submit.dataset = "aba";
  DiscoveryResultMsg result = client.submit_discovery(submit);
  EXPECT_FALSE(result.state.empty());
  releaser.join();
  running->wait();
}

TEST(NetServerTest, ConcurrentShutdownCallsAreSerialized) {
  Stack stack;
  BlockingClient writer = stack.connect("writer");
  writer.register_dataset("aba", DemoCsv(), /*live=*/true);
  BlockingClient sub = stack.connect("subscriber");
  sub.subscribe("aba", 8);

  // Every caller must block until the one real teardown finished — no
  // caller may return while the loop thread is still draining (a second
  // caller used to skip the join and shut the ops pool under the live
  // loop).
  std::vector<std::thread> callers;
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&] { stack.server->shutdown(); });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(stack.server->connections(), 0);
  stack.server->shutdown();  // still idempotent after the fact
}

TEST(NetServerTest, GracefulShutdownEndsStreamsAndDrains) {
  Stack stack;
  BlockingClient writer = stack.connect("writer");
  writer.register_dataset("aba", DemoCsv(), /*live=*/true);
  BlockingClient sub = stack.connect("subscriber");
  sub.subscribe("aba", 8);

  stack.server->shutdown();

  // The subscriber's stream ends with kServerShutdown before the socket
  // closes.
  StreamEvent ev;
  bool got_end = false;
  try {
    for (int i = 0; i < 20 && !got_end; ++i) {
      if (!sub.poll_event(&ev, 0.5)) continue;
      if (ev.kind == StreamEvent::Kind::kStreamEnd) {
        EXPECT_EQ(ev.end.reason, StreamEndReason::kServerShutdown);
        got_end = true;
      }
    }
  } catch (const std::exception&) {
  }
  EXPECT_TRUE(got_end);
  EXPECT_EQ(stack.server->connections(), 0);
}

TEST(NetServerTest, DrainingRefusesNewConnections) {
  Stack stack;
  BlockingClient client = stack.connect();
  client.ping();
  stack.server->shutdown();
  EXPECT_THROW(
      {
        BlockingClient late = stack.connect("late");
        late.ping();
      },
      std::exception);
}

TEST(NetServerTest, MetricsShowUpInPrometheusExposition) {
  Stack stack;
  BlockingClient client = stack.connect();
  client.register_dataset("aba", DemoCsv(), /*live=*/false);
  client.ping();
  std::string text = PrometheusText(stack.metrics);
  EXPECT_NE(text.find("dhyfd_net_conns_accepted"), std::string::npos);
  EXPECT_NE(text.find("dhyfd_net_frames_rx"), std::string::npos);
  EXPECT_NE(text.find("dhyfd_net_connections"), std::string::npos);
  EXPECT_NE(text.find("dhyfd_net_request_seconds"), std::string::npos);
}

TEST(NetServerTest, CostTrailerPairsWithTracedRequests) {
  Stack stack;
  BlockingClient client = stack.connect("billed");
  EXPECT_FALSE(client.has_last_cost());

  // Untraced requests stay bare on the wire: no envelope out, no trailer
  // back, so the fast path pays nothing for attribution nobody asked for.
  client.register_dataset("plain", DemoCsv(), /*live=*/false);
  EXPECT_FALSE(client.has_last_cost());

  // A TraceIdScope opts the calls into end-to-end attribution even with
  // span recording off: the envelope crosses the wire and every
  // successful result comes back with its cost trailer.
  TraceIdScope traced(771);
  client.register_dataset("aba", DemoCsv(), /*live=*/true);
  ASSERT_TRUE(client.has_last_cost());
  EXPECT_GE(client.last_cost().run_seconds, 0.0);

  SubmitDiscoveryMsg submit;
  submit.dataset = "aba";
  client.submit_discovery(submit);
  ASSERT_TRUE(client.has_last_cost());
  // Discovery validated FDs and burned CPU; the ledger must say so.
  EXPECT_GT(client.last_cost().validations, 0u);
  EXPECT_GT(client.last_cost().cpu_ns, 0u);

  CoverResultMsg cover = client.query_cover("aba", 3);
  EXPECT_GT(cover.total, 0u);
  ASSERT_TRUE(client.has_last_cost());
  EXPECT_GT(client.last_cost().bytes_streamed, 0u);

  // The per-RPC metrics saw traced and untraced work alike.
  EXPECT_GE(stack.metrics.counter("net.rpc.requests").value(), 4);
}

TEST(NetServerTest, ErrorRepliesCarryNoTrailer) {
  Stack stack;
  BlockingClient client = stack.connect();
  TraceIdScope traced(772);
  try {
    client.query_cover("missing");
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), ErrCode::kUnknownDataset);
  }
  // No trailer followed the error frame — the next RPC's reply frame is
  // its own result, not a stale kCostTrailer.
  EXPECT_FALSE(client.has_last_cost());
  client.register_dataset("aba", DemoCsv(), /*live=*/false);
  EXPECT_TRUE(client.has_last_cost());
}

TEST(NetServerTest, MalformedTracedEnvelopeDropsConnection) {
  Stack stack;
  BlockingClient healthy = stack.connect("healthy");
  TraceContext ctx;
  ctx.trace_id = 1;
  ctx.span_id = 2;

  // An envelope may carry only a request: one wrapping another envelope
  // (recursion), a hello (a second handshake) or a server->client type is
  // a protocol error that drops the connection and leaves the others alone.
  const std::vector<std::uint8_t> hello = Payload(HelloMsg{});
  const std::vector<std::pair<MsgType, std::vector<std::uint8_t>>> inners = {
      {MsgType::kTracedRequest, {}},
      {MsgType::kHello, hello},
      {MsgType::kHelloOk, Payload(HelloOkMsg{})},
  };
  std::int64_t errors = stack.metrics.counter("net.protocol_errors").value();
  for (const auto& [inner_type, inner_payload] : inners) {
    SCOPED_TRACE(static_cast<int>(inner_type));
    BlockingClient hostile = stack.connect("hostile");
    std::vector<std::uint8_t> frame =
        EncodeTracedFrame(inner_type, 7, inner_payload, ctx);
    hostile.send_bytes(frame.data(), frame.size());
    bool dropped = false;
    try {
      Frame f;
      dropped = !hostile.read_frame(&f);
    } catch (const std::exception&) {
      dropped = true;
    }
    EXPECT_TRUE(dropped);
    EXPECT_GT(stack.metrics.counter("net.protocol_errors").value(), errors);
    errors = stack.metrics.counter("net.protocol_errors").value();
  }

  // An envelope as the very first frame is not a hello: dropped unanswered,
  // even when it wraps one.
  for (MsgType inner_type : {MsgType::kPing, MsgType::kHello}) {
    SCOPED_TRACE(static_cast<int>(inner_type));
    Socket s = ConnectTcp("127.0.0.1", stack.server->port());
    s.set_recv_timeout(30);
    std::vector<std::uint8_t> inner_payload;
    if (inner_type == MsgType::kHello) inner_payload = hello;
    s.write_all(EncodeTracedFrame(inner_type, 1, inner_payload, ctx));
    Frame f;
    EXPECT_FALSE(ReadRawFrame(s, &f));
    EXPECT_GT(stack.metrics.counter("net.protocol_errors").value(), errors);
    errors = stack.metrics.counter("net.protocol_errors").value();
  }
  healthy.ping();
}

TEST(NetServerTest, MaxConnectionsAcceptThenClose) {
  ServerOptions options;
  options.max_connections = 1;
  Stack stack(options);
  BlockingClient first = stack.connect("first");
  first.ping();
  EXPECT_THROW(
      {
        BlockingClient second = stack.connect("second");
        second.ping();
      },
      std::exception);
  EXPECT_GE(stack.metrics.counter("net.conns_rejected").value(), 1);
  first.ping();  // the admitted connection is untouched
}

}  // namespace
}  // namespace dhyfd::net
