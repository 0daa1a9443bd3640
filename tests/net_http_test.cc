// The embedded HTTP observability endpoint: parser unit tests, then the
// live routes (/metrics, /healthz, /slowlog, /tracez) served from the same
// poll loop as the RPC protocol. The negative-path tests all end by talking
// to the server again — a malformed HTTP request must cost one HTTP
// connection, never the loop.
#include "net/http.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "datagen/benchmark_data.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/prometheus.h"
#include "relation/csv.h"
#include "relation/encoder.h"

namespace dhyfd::net {
namespace {

TEST(HttpParseTest, NeedsMoreUntilBlankLine) {
  HttpRequest req;
  EXPECT_EQ(ParseHttpRequest("", &req, 1024), HttpParseStatus::kNeedMore);
  EXPECT_EQ(ParseHttpRequest("GET /metrics HTTP/1.0\r\n", &req, 1024),
            HttpParseStatus::kNeedMore);
  EXPECT_EQ(ParseHttpRequest("GET /metrics HTTP/1.0\r\nHost: x\r\n", &req, 1024),
            HttpParseStatus::kNeedMore);
}

TEST(HttpParseTest, ParsesRequestLineCrlfAndBareLf) {
  HttpRequest req;
  ASSERT_EQ(ParseHttpRequest("GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n", &req,
                             1024),
            HttpParseStatus::kOk);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/metrics");
  EXPECT_EQ(req.version, "HTTP/1.0");

  // curl-style HTTP/1.1 and tolerant bare-LF termination both parse.
  ASSERT_EQ(ParseHttpRequest("GET /slowlog?n=5 HTTP/1.1\n\n", &req, 1024),
            HttpParseStatus::kOk);
  EXPECT_EQ(req.target, "/slowlog?n=5");
  EXPECT_EQ(req.version, "HTTP/1.1");
}

TEST(HttpParseTest, MalformedRequestLinesAreBad) {
  HttpRequest req;
  // No spaces at all.
  EXPECT_EQ(ParseHttpRequest("NOT-HTTP\r\n\r\n", &req, 1024),
            HttpParseStatus::kBad);
  // Missing version token.
  EXPECT_EQ(ParseHttpRequest("GET /metrics\r\n\r\n", &req, 1024),
            HttpParseStatus::kBad);
  // Extra token.
  EXPECT_EQ(ParseHttpRequest("GET /a b HTTP/1.0\r\n\r\n", &req, 1024),
            HttpParseStatus::kBad);
  // Target must be origin-form.
  EXPECT_EQ(ParseHttpRequest("GET metrics HTTP/1.0\r\n\r\n", &req, 1024),
            HttpParseStatus::kBad);
  // Version must be HTTP/x.y.
  EXPECT_EQ(ParseHttpRequest("GET /metrics SPDY/9\r\n\r\n", &req, 1024),
            HttpParseStatus::kBad);
}

TEST(HttpParseTest, OversizedHeadIsTooLarge) {
  HttpRequest req;
  std::string no_terminator(300, 'A');
  EXPECT_EQ(ParseHttpRequest(no_terminator, &req, 128),
            HttpParseStatus::kTooLarge);
  // A complete head that only fits past the cap is rejected too.
  std::string huge = "GET /metrics HTTP/1.0\r\nX: " + std::string(200, 'y') +
                     "\r\n\r\n";
  EXPECT_EQ(ParseHttpRequest(huge, &req, 128), HttpParseStatus::kTooLarge);
}

TEST(HttpParseTest, RenderedResponseHasFramingHeaders) {
  std::vector<std::uint8_t> raw =
      RenderHttpResponse(200, "text/plain; charset=utf-8", "ok\n");
  std::string text(raw.begin(), raw.end());
  EXPECT_EQ(text.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(text.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(text.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 3), "ok\n");
}

std::string DemoCsv(int rows = 120) {
  return WriteCsvString(GenerateBenchmark("abalone", rows));
}

/// Service stack with the HTTP endpoint enabled.
struct Stack {
  explicit Stack(ServerOptions options = {}) {
    options.http_enabled = true;
    scheduler = std::make_unique<JobScheduler>(&datasets, &metrics,
                                               SchedulerOptions{.num_threads = 2});
    live = std::make_unique<LiveStore>(&metrics, 2);
    server = std::make_unique<ProfilingServer>(scheduler.get(), live.get(),
                                               &datasets, &metrics, options);
    server->start();
  }
  ~Stack() {
    server->shutdown();
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

/// Sends raw bytes to the HTTP port and reads until the server closes.
std::string HttpExchange(std::uint16_t port, const std::string& request) {
  Socket s = ConnectTcp("127.0.0.1", port);
  s.set_recv_timeout(30);
  s.write_all(reinterpret_cast<const std::uint8_t*>(request.data()),
              request.size());
  std::string out;
  std::uint8_t byte = 0;
  try {
    while (s.read_exact(&byte, 1)) out.push_back(static_cast<char>(byte));
  } catch (const std::exception&) {
    // A reset after the response was flushed still leaves `out` complete
    // enough to assert on; an empty `out` fails the assertions below.
  }
  return out;
}

std::string HttpGet(std::uint16_t port, const std::string& path) {
  return HttpExchange(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

TEST(NetHttpEndpointTest, HealthzAnswersOk) {
  Stack stack;
  ASSERT_NE(stack.server->http_port(), 0);
  std::string resp = HttpGet(stack.server->http_port(), "/healthz");
  EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(resp.find("\r\n\r\nok\n"), std::string::npos);
}

TEST(NetHttpEndpointTest, MetricsIsPrometheusExposition) {
  Stack stack;
  BlockingClient client = stack.connect();
  client.register_dataset("aba", DemoCsv(), /*live=*/false);
  SubmitDiscoveryMsg submit;
  submit.dataset = "aba";
  client.submit_discovery(submit);

  std::string resp = HttpGet(stack.server->http_port(), "/metrics");
  EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  // The body is the same exposition the in-process renderer produces:
  // per-RPC histograms, process gauges, and the legacy request histogram.
  EXPECT_NE(resp.find("# TYPE dhyfd_net_rpc_submit_discovery_ok_seconds "
                      "histogram"),
            std::string::npos);
  EXPECT_NE(resp.find("dhyfd_net_rpc_requests"), std::string::npos);
  EXPECT_NE(resp.find("dhyfd_net_request_seconds"), std::string::npos);
  EXPECT_NE(resp.find("dhyfd_process_open_fds"), std::string::npos);
  EXPECT_NE(resp.find("dhyfd_net_http_connections"), std::string::npos);
}

TEST(NetHttpEndpointTest, SlowlogAndTracezCarryRequestCosts) {
  Stack stack;
  BlockingClient client = stack.connect("tenant-a");
  client.register_dataset("aba", DemoCsv(), /*live=*/true);
  SubmitDiscoveryMsg submit;
  submit.dataset = "aba";
  client.submit_discovery(submit);
  client.query_cover("aba", 3);

  std::string slowlog = HttpGet(stack.server->http_port(), "/slowlog");
  EXPECT_EQ(slowlog.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(slowlog.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(slowlog.find("\"slowest\":["), std::string::npos);
  EXPECT_NE(slowlog.find("\"type\":\"submit_discovery\""), std::string::npos);
  EXPECT_NE(slowlog.find("\"tenant\":\"tenant-a\""), std::string::npos);
  EXPECT_NE(slowlog.find("\"tenants\":{"), std::string::npos);
  // The discovery actually validated FDs, so its ledger is non-zero.
  EXPECT_NE(slowlog.find("\"validations\":"), std::string::npos);
  EXPECT_EQ(slowlog.find("\"validations\":0,\"partitions_built\":0,"
                         "\"cache_hits\":0,\"cache_misses\":0,"
                         "\"bytes_streamed\":0"),
            std::string::npos)
      << "every recorded request has an all-zero ledger:\n" << slowlog;

  std::string tracez = HttpGet(stack.server->http_port(), "/tracez");
  EXPECT_EQ(tracez.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(tracez.find("\"recent\":["), std::string::npos);
  EXPECT_NE(tracez.find("\"type\":\"query_cover\""), std::string::npos);
}

TEST(NetHttpEndpointTest, NegativeRequestsAnswerWithoutKillingTheLoop) {
  ServerOptions options;
  options.max_http_request_bytes = 128;
  Stack stack(options);
  std::uint16_t port = stack.server->http_port();

  EXPECT_EQ(HttpGet(port, "/nope").rfind("HTTP/1.0 404 ", 0), 0u);
  EXPECT_EQ(HttpExchange(port, "POST /metrics HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 405 ", 0),
            0u);
  EXPECT_EQ(HttpExchange(port, "NOT-HTTP\r\n\r\n").rfind("HTTP/1.0 400 ", 0),
            0u);
  EXPECT_EQ(HttpExchange(port, std::string(300, 'A')).rfind("HTTP/1.0 431 ", 0),
            0u);

  // The loop survived all four: HTTP still answers and RPC still works.
  EXPECT_EQ(HttpGet(port, "/healthz").rfind("HTTP/1.0 200 ", 0), 0u);
  BlockingClient client = stack.connect();
  client.ping();
  // /nope, POST and /healthz parsed; the 400 and 431 count as bad.
  EXPECT_GE(stack.metrics.counter("net.http.requests").value(), 3);
  EXPECT_GE(stack.metrics.counter("net.http.bad_requests").value(), 2);
}

TEST(NetHttpEndpointTest, QueryStringIsIgnoredForRouting) {
  Stack stack;
  std::string resp = HttpGet(stack.server->http_port(), "/healthz?verbose=1");
  EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
}

TEST(NetHttpEndpointTest, HealthzFlipsTo503WhileDraining) {
  Stack stack;
  BlockingClient client = stack.connect();
  client.register_dataset("aba", DemoCsv(), /*live=*/false);

  // Hold the schedulers' workers hostage so a client-submitted discovery
  // stays pending; shutdown() then cannot finish draining until released.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  int entered = 0;
  bool release = false;
  ProfileJob blocker;
  blocker.dataset = "aba";
  blocker.options.stage_hook = [&](ProfileStage, double) {
    std::unique_lock<std::mutex> lock(gate_mu);
    ++entered;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return release; });
  };
  JobHandlePtr b1 = stack.scheduler->submit(blocker);
  JobHandlePtr b2 = stack.scheduler->submit(blocker);
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return entered == 2; });
  }

  std::thread rpc([&] {
    SubmitDiscoveryMsg submit;
    submit.dataset = "aba";
    try {
      client.submit_discovery(submit);
    } catch (const std::exception&) {
      // Drain may close the connection after delivering the result; either
      // way the job was pending long enough for the 503 check below.
    }
  });
  // The pending job is visible to the server before shutdown begins once
  // the discovery request has been admitted; poll until it is in flight.
  for (int i = 0; i < 200 && stack.metrics.counter("net.requests").value() < 2;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::thread closer([&] { stack.server->shutdown(); });

  // While draining, the listener stays open and /healthz reports 503.
  std::string resp;
  for (int i = 0; i < 400; ++i) {
    resp = HttpGet(stack.server->http_port(), "/healthz");
    if (resp.rfind("HTTP/1.0 503 ", 0) == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(resp.rfind("HTTP/1.0 503 ", 0), 0u) << resp;
  EXPECT_NE(resp.find("draining\n"), std::string::npos);

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    release = true;
    gate_cv.notify_all();
  }
  b1->wait();
  b2->wait();
  rpc.join();
  closer.join();
}

TEST(NetRegisterTest, LiveNullEqualsNullUploadEncodesOnce) {
  // A live null = null upload hands the registry the live store's initial
  // codes, so it is encoded once; a live null != null upload's codes are
  // not the registry's, so the registry encodes its own.
  RawTable table = GenerateBenchmark("abalone", 120);
  for (std::size_t row = 0; row < table.rows.size(); row += 7) {
    table.rows[row][1] = "";
  }
  const Relation want =
      EncodeRelation(table, NullSemantics::kNullEqualsNull).relation;
  Stack stack;
  BlockingClient client = stack.connect();
  Histogram& encodes = stack.metrics.histogram(kObsDatasetEncodeSeconds);
  for (std::uint8_t semantics : {0, 1}) {
    SCOPED_TRACE("semantics " + std::to_string(semantics));
    const std::string name = "live" + std::to_string(semantics);
    const std::int64_t before = encodes.count();
    client.register_dataset(name, WriteCsvString(table), /*live=*/true,
                            semantics);
    EXPECT_EQ(encodes.count() - before, semantics == 0 ? 0 : 1);
    std::shared_ptr<const Relation> got =
        stack.datasets.get(name, NullSemantics::kNullEqualsNull);
    ASSERT_EQ(got->num_rows(), want.num_rows());
    ASSERT_EQ(got->num_cols(), want.num_cols());
    for (AttrId c = 0; c < want.num_cols(); ++c) {
      EXPECT_EQ(got->column(c), want.column(c)) << "column " << c;
      EXPECT_EQ(got->domain_size(c), want.domain_size(c)) << "column " << c;
      for (RowId r = 0; r < want.num_rows(); ++r) {
        ASSERT_EQ(got->is_null(r, c), want.is_null(r, c))
            << "row " << r << " column " << c;
      }
    }
  }
}

TEST(NetHttpEndpointTest, DisabledByDefault) {
  // The plain RPC-only server must not open an HTTP port.
  MetricsRegistry metrics;
  DatasetRegistry datasets(&metrics);
  JobScheduler scheduler(&datasets, &metrics, {.num_threads = 1});
  LiveStore live(&metrics, 1);
  ProfilingServer server(&scheduler, &live, &datasets, &metrics, {});
  server.start();
  EXPECT_EQ(server.http_port(), 0);
  server.shutdown();
  live.shutdown();
  scheduler.shutdown();
}

}  // namespace
}  // namespace dhyfd::net
