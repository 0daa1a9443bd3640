#ifndef DHYFD_NET_SERVER_H_
#define DHYFD_NET_SERVER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/admission.h"
#include "net/credit.h"
#include "net/messages.h"
#include "net/slowlog.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/cost_ledger.h"
#include "obs/obs_schema.gen.h"
#include "service/live_store.h"
#include "service/metrics.h"
#include "service/scheduler.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace dhyfd::net {

/// Tuning knobs for one ProfilingServer. The defaults are sized for the
/// load bench (hundreds of concurrent clients); tests shrink the windows
/// and timeouts to force every rejection path deterministically.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one with port() after
  /// start().
  std::uint16_t port = 0;
  int accept_backlog = 128;

  // -- admission control ----------------------------------------------------
  /// Connections beyond this are accepted and immediately closed (the
  /// kernel backlog stays bounded, the client sees a clean EOF).
  int max_connections = 256;
  /// Per-connection window of accepted-but-unanswered requests; the
  /// (max_inflight + 1)-th concurrent request gets kTooManyInFlight.
  /// 0 disables.
  std::uint32_t max_inflight = 16;
  /// Per-connection request quota: token bucket, requests/second + burst.
  /// rate 0 disables.
  double quota_rate = 200;
  double quota_burst = 400;

  // -- framing --------------------------------------------------------------
  std::uint32_t max_frame_len = kDefaultMaxFrameLen;
  /// A connection whose outbound buffer exceeds this is dropped as a slow
  /// consumer regardless of credits — TCP backpressure must never translate
  /// into unbounded server memory.
  std::size_t max_write_buffer_bytes = 4u << 20;

  // -- streaming ------------------------------------------------------------
  /// Most credits a subscription may hold at once (grants clamp here).
  std::uint32_t credit_max = 1024;
  /// Stream events buffered per subscription while it holds no credit; one
  /// more ends the stream with kSlowConsumer and drops the connection.
  std::size_t max_buffered_events = 64;
  /// Heartbeat cadence on connections with live subscriptions (0 = off).
  double heartbeat_seconds = 5;
  /// Drop connections that sent nothing for this long (0 = never).
  double idle_timeout_seconds = 0;

  // -- observability endpoint ----------------------------------------------
  /// Serve GET /metrics, /healthz, /slowlog, /tracez over HTTP/1.0 from a
  /// second listener inside the same event loop. Off by default: the
  /// endpoint is read-only but still a surface.
  bool http_enabled = false;
  /// 0 binds an ephemeral port; read the actual one with http_port().
  std::uint16_t http_port = 0;
  /// Concurrent HTTP connections beyond this are accepted and closed.
  int max_http_connections = 32;
  /// Request head (request line + headers) byte cap; over it -> 431.
  std::size_t max_http_request_bytes = 8192;
  /// Worst-N slow-request ring served by /slowlog (0 disables).
  std::size_t slowlog_capacity = 32;
  /// Most-recent-N completed-request ring served by /tracez (0 disables).
  std::size_t tracez_capacity = 64;

  // -- lifecycle ------------------------------------------------------------
  /// Graceful-drain budget: shutdown() stops accepting, answers in-flight
  /// work and flushes buffers for up to this long before closing hard.
  double drain_seconds = 5;
};

/// The networked front end of the profiling service: a poll(2) event loop
/// on one background thread, speaking the length-prefixed RPC protocol of
/// wire.h/messages.h over TCP, bridging into the in-process service layer:
///
///   kSubmitDiscovery -> JobScheduler (deadline_ms -> the job's time limit,
///                       an expiry on its CancelToken armed at run start;
///                       past it, the answer is "deadline_expired" with no
///                       canonical cover or ranking)
///   kSubmitQuery     -> JobScheduler, the spec set as ProfileOptions::query:
///                       the query engine runs as the discovery stage and
///                       the answer is the report's ranked query result
///   kRegisterDataset -> DatasetRegistry (+ LiveStore::create when live)
///   kQueryCover      -> LiveStore ranking snapshot
///   kApplyUpdate     -> LiveStore strand submit
///   kSubscribe       -> LiveStore cover-change listener, credit-windowed
///
/// Every answer produced off the loop takes one path back: the ops-pool
/// task or the job/update handle's on_finish continuation builds the reply
/// and posts a Completion to the Inbox, which wakes the loop, and
/// flush_completions() delivers it. Nothing is polled.
///
/// Robustness posture (DESIGN.md "Network service"):
///   * bounded everything — accept backlog, connection count, per-client
///     in-flight windows and rate quotas, scheduler max_pending backstop,
///     per-subscription event buffers, per-connection write buffers;
///   * protocol errors drop the connection, they are never parsed around;
///   * slow consumers are disconnected (credit overflow or write-buffer
///     overflow), so one stalled client cannot starve the rest;
///   * shutdown() drains: StreamEnd to subscribers, then each connection
///     closes once every request it has in flight is answered and its
///     output is flushed (or drain_seconds pass).
///
/// Observability: net.* counters/gauges/histograms into the shared
/// MetricsRegistry (so they ride the existing Prometheus exposition),
/// net.dispatch / net.queue_wait / net.rpc spans into the global tracer
/// (adopting client-stamped trace ids from kTracedRequest wrappers), a
/// per-request CostLedger returned in kCostTrailer frames and aggregated
/// per connection/tenant, net.rpc.<type>.<outcome>_seconds latency
/// histograms, and — when options.http_enabled — an embedded HTTP/1.0
/// endpoint serving /metrics, /healthz, /slowlog, and /tracez.
class ProfilingServer {
 public:
  /// None of the service objects are owned; all must outlive the server.
  ProfilingServer(JobScheduler* scheduler, LiveStore* live,
                  DatasetRegistry* datasets, MetricsRegistry* metrics,
                  ServerOptions options = {});

  /// Equivalent to shutdown().
  ~ProfilingServer();

  ProfilingServer(const ProfilingServer&) = delete;
  ProfilingServer& operator=(const ProfilingServer&) = delete;

  /// Binds the listen socket (throws std::runtime_error on failure) and
  /// starts the event-loop thread.
  void start();

  /// The bound port; valid after start().
  std::uint16_t port() const { return port_; }

  /// The observability endpoint's bound port; valid after start() when
  /// options.http_enabled (0 otherwise).
  std::uint16_t http_port() const { return http_port_; }

  /// Graceful drain then stop; idempotent, callable from any thread.
  void shutdown();

  /// Live connection count (mirrors the net.connections gauge).
  std::int64_t connections() const {
    return metrics_->gauge(kObsNetConnections).value();
  }

 private:
  struct Subscription {
    std::string dataset;  // "" follows every live dataset
    CreditWindow window;
  };

  /// Per-connection state; owned and touched by the loop thread only.
  struct Connection {
    std::uint64_t id = 0;
    Socket sock;
    FrameDecoder decoder;
    TokenBucket bucket;
    InflightWindow inflight;
    std::map<std::uint64_t, Subscription> subs;  // key: subscribe request id
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
    double last_recv = 0;
    double last_send = 0;
    bool got_hello = false;
    /// Answer what is in flight, flush the outbound buffer, then close
    /// (goodbye, version-mismatch and slow-consumer paths). The server's
    /// drain does not set it: a draining server keeps reading, so requests
    /// sent during the drain are answered shutting_down.
    bool closing = false;
    /// The socket failed mid-write (peer reset, buffer overflow). The
    /// Connection must NOT be erased from conns_ at the point of failure:
    /// writes happen deep inside call chains (dispatch, heartbeat sweeps,
    /// event fan-out) whose callers still hold the reference or are
    /// range-iterating conns_. Dead connections are reaped at one safe
    /// point per loop tick instead.
    bool dead = false;
    /// Hello client_name, used as the tenant key for cost attribution
    /// ("anonymous" when the client sent none).
    std::string client_name = "anonymous";
    /// This tenant's aggregate ledger inside tenant_costs_, resolved once
    /// at the hello handshake so the per-request path is a pointer add
    /// instead of a string-keyed map walk. std::map nodes are stable and
    /// tenant rows are never erased, so the pointer outlives the
    /// connection. Null until hello names the tenant.
    CostLedger* tenant_slot = nullptr;
    /// Running total of every finished request's ledger on this connection.
    CostLedger total_cost;

    Connection(std::uint32_t max_frame_len, double quota_rate,
               double quota_burst, std::uint32_t max_inflight)
        : decoder(max_frame_len),
          bucket(quota_rate, quota_burst),
          inflight(max_inflight) {}
  };

  /// One observability-endpoint connection: read a bounded request head,
  /// write one response, close. Owned and touched by the loop thread only.
  struct HttpConnection {
    std::uint64_t id = 0;
    Socket sock;
    std::string in;
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
    bool responded = false;
    bool dead = false;
  };

  /// RPC telemetry computed off-loop, applied on the loop thread where the
  /// slow ring, tracez ring, and tenant aggregation live. rtype is a
  /// RequestTypeName label.
  struct RpcFinish {
    const char* rtype = "";
    const char* outcome = "";
    std::uint64_t request_id = 0;
    std::uint64_t trace_id = 0;
    double queue_seconds = 0;
    double run_seconds = 0;
    bool has_cost = false;
    CostLedger cost;
  };
  /// An admitted request's answer (reply frame, plus its cost trailer
  /// when traced), built off the loop and posted to the Inbox. Delivery
  /// releases the request's in-flight slot.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::vector<std::uint8_t> frame;
    double started = 0;   // request start time
    RpcFinish finish;
  };
  /// Answers and cover-change events posted from other threads; each post
  /// wakes the loop. Shared-owned by the server and every poster, so one
  /// that fires after the server is gone (a job the scheduler runs during
  /// its own shutdown, a listener call racing unsubscribe()) is dropped.
  struct Inbox {
    Mutex mu;
    std::vector<Completion> completions DHYFD_GUARDED_BY(mu);
    std::vector<CoverChangeEvent> events DHYFD_GUARDED_BY(mu);
    /// Set when the loop is gone; later posts are dropped.
    bool closed DHYFD_GUARDED_BY(mu) = false;
    WakePipe wake;

    void post(Completion done) DHYFD_EXCLUDES(mu);
    void post(CoverChangeEvent event) DHYFD_EXCLUDES(mu);
    void close() DHYFD_EXCLUDES(mu);
  };
  /// Runs on an ops-pool thread: writes the reply frame for `request_id`
  /// into *reply and returns whether the request succeeded.
  using OpsBody =
      std::function<bool(std::uint64_t request_id,
                         std::vector<std::uint8_t>* reply)>;
  using RequestHandler = void (ProfilingServer::*)(Connection&, const Frame&,
                                                   const TraceContext&);

  void loop();
  double now() const;

  // Loop-side handlers (loop thread only).
  void accept_new();
  void handle_readable(Connection& c);
  void dispatch(Connection& c, const Frame& frame);
  /// The per-request switch, after dispatch() unwrapped any kTracedRequest
  /// envelope. `ctx` carries the client-stamped trace context (ids 0 when
  /// the request was not traced); runs under TraceIdScope(ctx.trace_id).
  void dispatch_request(Connection& c, const Frame& frame,
                        const TraceContext& ctx);

  // The request lifecycle, one copy of each step (loop thread only).
  /// Refuses every request while draining and charges the rate quota
  /// (admission layer 2), then runs `handler` (null: the frame was a
  /// server->client type, which drops the connection).
  void serve(Connection& c, const Frame& frame, const TraceContext& ctx,
             RequestHandler handler);
  /// Records the refused request under `outcome` and answers kError.
  void refuse(Connection& c, const Frame& frame, const TraceContext& ctx,
              const char* outcome, ErrCode code, const std::string& message);
  /// Admission, layer 3: takes an in-flight window slot, or refuses with
  /// kTooManyInFlight and returns false.
  bool admit(Connection& c, const Frame& frame, const TraceContext& ctx);
  /// Submits a discovery or query job: unknown datasets are refused, then
  /// the job takes a window slot and a scheduler slot (kServerBusy when
  /// the scheduler's queue is full). Its continuation posts the answer: a
  /// kQueryResult when the job's options carry a query (kSubmitQuery), else
  /// a kDiscoveryResult.
  void submit_job(Connection& c, const Frame& frame, const TraceContext& ctx,
                  ProfileJob job, std::uint32_t top_k);
  /// Takes a window slot and runs `body` on the ops pool: queue-wait span,
  /// cost ledger, cost trailer on success, completion and wake. A throwing
  /// body answers kError(on_throw).
  void run_on_ops_pool(Connection& c, const Frame& frame,
                       const TraceContext& ctx, ErrCode on_throw,
                       OpsBody body);
  /// An admitted request's Completion, before its reply is built.
  Completion new_completion(const Connection& c, const Frame& frame,
                            const TraceContext& ctx) const;
  /// Reply builders, run on the thread that finished the handle: fill
  /// done->frame (plus a cost trailer for a traced result) and done->finish.
  static void finish_job(const JobHandle& h, std::uint32_t top_k,
                         Completion* done);
  static void finish_update(const UpdateJobHandle& h, Completion* done);

  void handle_submit_discovery(Connection& c, const Frame& frame,
                               const TraceContext& ctx);
  void handle_submit_query(Connection& c, const Frame& frame,
                           const TraceContext& ctx);
  void handle_register(Connection& c, const Frame& frame,
                       const TraceContext& ctx);
  void handle_query_cover(Connection& c, const Frame& frame,
                          const TraceContext& ctx);
  void handle_apply_update(Connection& c, const Frame& frame,
                           const TraceContext& ctx);
  void handle_subscribe(Connection& c, const Frame& frame,
                        const TraceContext& ctx);
  void handle_credit(Connection& c, const Frame& frame);
  void handle_unsubscribe(Connection& c, const Frame& frame);
  void deliver_events(std::vector<CoverChangeEvent> events);
  /// Takes everything posted to the inbox: delivers the answers (the one
  /// place an in-flight slot is released and an answered RPC is recorded),
  /// then fans the cover-change events out to subscribers.
  void flush_completions();
  void heartbeat_and_idle();
  void send_frame(Connection& c, std::vector<std::uint8_t> frame);
  void send_error(Connection& c, std::uint64_t request_id, ErrCode code,
                  const std::string& message);
  void end_subscription(Connection& c, std::uint64_t sub_id,
                        StreamEndReason reason, const std::string& detail);
  void drop_connection(std::uint64_t conn_id, const char* why);
  void mark_dead(Connection& c);
  void reap_connections();
  void flush_writes(Connection& c);
  /// Past the drain deadline, or no connection has output or requests in
  /// flight.
  bool drain_finished();

  // Per-RPC telemetry (loop thread only): latency histograms by
  // type x outcome, slow/tracez rings, tenant cost aggregation.
  void record_rpc(Connection& c, const RpcFinish& fin, double duration);
  /// Resolves (creating if under the 64-row cap) the tenant's aggregate
  /// ledger row; past the cap everyone shares the "(other)" overflow row.
  CostLedger* tenant_slot(const std::string& tenant);
  Histogram& rpc_outcome_histogram(const char* rtype, const char* outcome);

  // Observability HTTP endpoint (loop thread only).
  void accept_http();
  void handle_http_readable(HttpConnection& h);
  void respond_http(HttpConnection& h, int status,
                    const std::string& content_type, const std::string& body);
  void flush_http_writes(HttpConnection& h);
  void reap_http_connections();
  std::string render_slowlog_json();
  std::string render_tracez_json();

  JobScheduler* scheduler_;
  LiveStore* live_;
  DatasetRegistry* datasets_;
  MetricsRegistry* metrics_;
  const ServerOptions options_;

  Socket listener_;
  std::uint16_t port_ = 0;
  const std::shared_ptr<Inbox> inbox_;
  /// Blocking service calls (CSV parse/encode, initial live discovery,
  /// ranking snapshots) run here so the event loop never waits on them.
  ThreadPool ops_pool_;
  std::thread loop_thread_;  // analyze-allow: naked-thread (event loop)
  std::chrono::steady_clock::time_point epoch_;

  // Loop-thread-only state (no locks: single owner).
  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 1;
  bool draining_ = false;
  double drain_deadline_ = 0;

  // Observability endpoint state (loop thread only). The HTTP listener
  // stays open during drain so /healthz can answer 503 while the RPC side
  // refuses work.
  Socket http_listener_;
  std::uint16_t http_port_ = 0;
  std::map<std::uint64_t, std::unique_ptr<HttpConnection>> http_conns_;
  std::uint64_t next_http_id_ = 1;
  SlowLog slowlog_;
  RecentRpcRing tracez_;
  std::map<std::string, CostLedger> tenant_costs_;

  // Pre-resolved metric handles for the per-request fast path. Every
  // registry lookup is a mutex acquisition plus a string-keyed map walk;
  // at tens of thousands of RPCs per second on the single loop thread that
  // dwarfs the work being measured. Registry slots are never erased, so
  // the references stay valid for the server's lifetime.
  Counter& m_requests_;
  Counter& m_frames_rx_;
  Counter& m_bytes_rx_;
  Counter& m_frames_tx_;
  Counter& m_bytes_tx_;
  Counter& m_protocol_errors_;
  Histogram& m_request_seconds_;
  Counter& m_rpc_requests_;
  Histogram& m_rpc_queue_seconds_;
  Histogram& m_rpc_run_seconds_;
  Counter& m_rpc_cpu_ns_;
  Counter& m_rpc_validations_;
  Counter& m_rpc_partitions_built_;
  Counter& m_rpc_bytes_streamed_;
  // Lazily grown cache of the type x outcome latency family, keyed by
  // pointer identity of the literal name tables (loop thread only). A
  // duplicate entry from a second literal address is harmless — both
  // resolve to the same registry slot — and the set stays tiny.
  std::vector<std::tuple<const char*, const char*, Histogram*>>
      rpc_hist_cache_;

  // Cross-thread state: set by shutdown(), read by the loop each tick.
  mutable Mutex mu_;
  bool stop_requested_ DHYFD_GUARDED_BY(mu_) = false;

  /// Serializes the shutdown body: exactly one caller joins the loop thread
  /// and tears down (unsubscribe, ops pool); concurrent or repeat callers
  /// block here until that teardown finished, so shutdown() never returns
  /// while the loop thread is still draining.
  Mutex shutdown_mu_;
  bool shutdown_done_ DHYFD_GUARDED_BY(shutdown_mu_) = false;
  std::uint64_t live_listener_token_ DHYFD_GUARDED_BY(shutdown_mu_) = 0;
};

}  // namespace dhyfd::net

#endif  // DHYFD_NET_SERVER_H_
