#include "net/server.h"

#include <algorithm>
#include <utility>

#include "core/profiler.h"
#include "net/http.h"
#include "net/messages.h"
#include "obs/obs_schema.gen.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "query/query.h"
#include "ranking/ranking.h"
#include "relation/csv.h"

namespace dhyfd::net {

namespace {

constexpr int kOpsThreads = 2;
/// The loop's poll timeout: the cadence of heartbeats, idle checks and the
/// drain deadline. Answers and events wake the loop; they never wait for it.
constexpr int kTickMs = 50;

double SecondsSince(std::chrono::steady_clock::time_point epoch) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

/// Appends a kCostTrailer frame (same request_id as the answer it follows)
/// to `out`, so both ship in one write and the client reads the trailer
/// deterministically right after the result.
void AppendCostTrailer(std::vector<std::uint8_t>* out,
                       std::uint64_t request_id, const CostLedger& cost,
                       double queue_seconds, double run_seconds) {
  CostTrailerMsg trailer;
  trailer.cpu_ns = static_cast<std::uint64_t>(std::max<std::int64_t>(
      cost.cpu_ns, 0));
  trailer.validations = static_cast<std::uint64_t>(cost.validations);
  trailer.partitions_built = static_cast<std::uint64_t>(cost.partitions_built);
  trailer.cache_hits = static_cast<std::uint64_t>(cost.cache_hits);
  trailer.cache_misses = static_cast<std::uint64_t>(cost.cache_misses);
  trailer.bytes_streamed = static_cast<std::uint64_t>(cost.bytes_streamed);
  trailer.queue_seconds = queue_seconds;
  trailer.run_seconds = run_seconds;
  std::vector<std::uint8_t> frame =
      EncodeMsgFrame(MsgType::kCostTrailer, request_id, trailer);
  out->insert(out->end(), frame.begin(), frame.end());
}

/// Why a null-semantics byte is refused, or "" when it names one: 0 is
/// null = null, 1 is null != null.
std::string DescribeSemanticsError(std::uint8_t v) {
  if (v <= 1) return {};
  return "unknown null semantics " + std::to_string(v) + " (expected 0 or 1)";
}

NullSemantics SemanticsFromWire(std::uint8_t v) {
  return v == 0 ? NullSemantics::kNullEqualsNull
                : NullSemantics::kNullNotEqualsNull;
}

/// The job fields both submit messages carry: dataset, semantics, priority,
/// the deadline, the parallelism request and the client's trace context.
template <typename SubmitMsg>
ProfileJob JobFromSubmit(const SubmitMsg& msg, const TraceContext& ctx) {
  ProfileJob job;
  job.dataset = msg.dataset;
  job.options.semantics = SemanticsFromWire(msg.semantics);
  job.priority = msg.priority;
  // The request deadline becomes the job's time limit. It arms the job's
  // CancelToken when the job starts running, and every stage polls that
  // token, so past-due work stops instead of burning a worker on an answer
  // nobody is waiting for.
  job.time_limit_seconds = msg.deadline_ms / 1000.0;
  // A hostile parallelism degree is harmless — the scheduler clamps to its
  // pool size — but bound it anyway so the int cast is safe.
  job.options.parallelism = static_cast<int>(
      std::max<std::uint32_t>(1, std::min<std::uint32_t>(msg.parallelism,
                                                         1u << 10)));
  // Client-stamped trace context rides into the scheduler: svc.queue_wait
  // and svc.job.run land in the same causal tree as the client's call span.
  job.trace_id = ctx.trace_id;
  return job;
}

std::vector<RankedFdMsg> TopRanked(const std::vector<FdRedundancy>& ranking,
                                   std::uint32_t top_k) {
  std::vector<RankedFdMsg> out;
  std::uint32_t n = std::min<std::uint32_t>(
      top_k, static_cast<std::uint32_t>(ranking.size()));
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back({ranking[i].fd.to_string(),
                   static_cast<double>(RedundancyCount(
                       ranking[i], RedundancyMode::kExcludingNullRhs))});
  }
  return out;
}

std::vector<std::string> FdStrings(const FdSet& fds) {
  std::vector<std::string> out;
  out.reserve(fds.fds.size());
  for (const Fd& fd : fds.fds) out.push_back(fd.to_string());
  return out;
}

}  // namespace

ProfilingServer::ProfilingServer(JobScheduler* scheduler, LiveStore* live,
                                 DatasetRegistry* datasets,
                                 MetricsRegistry* metrics,
                                 ServerOptions options)
    : scheduler_(scheduler),
      live_(live),
      datasets_(datasets),
      metrics_(metrics),
      options_(std::move(options)),
      inbox_(std::make_shared<Inbox>()),
      ops_pool_(kOpsThreads),
      epoch_(std::chrono::steady_clock::now()),
      slowlog_(options_.slowlog_capacity),
      tracez_(options_.tracez_capacity),
      m_requests_(metrics->counter(kObsNetRequests)),
      m_frames_rx_(metrics->counter(kObsNetFramesRx)),
      m_bytes_rx_(metrics->counter(kObsNetBytesRx)),
      m_frames_tx_(metrics->counter(kObsNetFramesTx)),
      m_bytes_tx_(metrics->counter(kObsNetBytesTx)),
      m_protocol_errors_(metrics->counter(kObsNetProtocolErrors)),
      m_request_seconds_(metrics->histogram(kObsNetRequestSeconds)),
      m_rpc_requests_(metrics->counter(kObsNetRpcRequests)),
      m_rpc_queue_seconds_(metrics->histogram(kObsNetRpcQueueSeconds)),
      m_rpc_run_seconds_(metrics->histogram(kObsNetRpcRunSeconds)),
      m_rpc_cpu_ns_(metrics->counter(kObsNetRpcCpuNs)),
      m_rpc_validations_(metrics->counter(kObsNetRpcValidations)),
      m_rpc_partitions_built_(metrics->counter(kObsNetRpcPartitionsBuilt)),
      m_rpc_bytes_streamed_(metrics->counter(kObsNetRpcBytesStreamed)) {}

ProfilingServer::~ProfilingServer() { shutdown(); }

double ProfilingServer::now() const { return SecondsSince(epoch_); }

void ProfilingServer::Inbox::post(Completion done) {
  {
    MutexLock lock(&mu);
    if (closed) return;
    completions.push_back(std::move(done));
  }
  wake.wake();
}

void ProfilingServer::Inbox::post(CoverChangeEvent event) {
  {
    MutexLock lock(&mu);
    if (closed) return;
    events.push_back(std::move(event));
  }
  wake.wake();
}

void ProfilingServer::Inbox::close() {
  MutexLock lock(&mu);
  closed = true;
  completions.clear();
  events.clear();
}

void ProfilingServer::start() {
  listener_ = ListenTcp(options_.host, options_.port, options_.accept_backlog,
                        &port_);
  listener_.set_nonblocking(true);
  if (options_.http_enabled) {
    http_listener_ = ListenTcp(options_.host, options_.http_port,
                               options_.accept_backlog, &http_port_);
    http_listener_.set_nonblocking(true);
  }
  // Cover-change events are produced on LiveStore worker threads; they are
  // posted to the inbox and the loop fans them out to subscribers.
  {
    MutexLock lock(&shutdown_mu_);
    live_listener_token_ = live_->subscribe(
        [inbox = inbox_](const CoverChangeEvent& ev) { inbox->post(ev); });
  }
  // The event loop owns its thread for its whole lifetime; pool workers
  // are for bounded tasks.  // analyze-allow: naked-thread
  loop_thread_ = std::thread([this] { loop(); });  // analyze-allow: naked-thread
}

void ProfilingServer::shutdown() {
  {
    MutexLock lock(&mu_);
    stop_requested_ = true;
  }
  inbox_->wake.wake();
  // Exactly one caller runs the teardown; everyone else blocks on the
  // mutex until it finished, then sees shutdown_done_ and returns. No
  // caller can return while the loop thread is still draining, and the
  // listener token is only touched under the same lock.
  MutexLock teardown(&shutdown_mu_);
  if (shutdown_done_) return;
  shutdown_done_ = true;
  if (loop_thread_.joinable()) loop_thread_.join();
  // Nobody reads the inbox anymore; what still finishes posts into nothing.
  inbox_->close();
  if (live_listener_token_ != 0) {
    live_->unsubscribe(live_listener_token_);
    live_listener_token_ = 0;
  }
  ops_pool_.shutdown();
}

// ---------------------------------------------------------------- event loop

void ProfilingServer::loop() {
  Poller poller;
  for (;;) {
    // Pick the drain state up first so this tick already refuses new work.
    bool stop;
    {
      MutexLock lock(&mu_);
      stop = stop_requested_;
    }
    if (stop && !draining_) {
      draining_ = true;
      drain_deadline_ = now() + options_.drain_seconds;
      listener_.close();
      for (auto& [id, conn] : conns_) {
        // Subscribers get a terminal frame; connections stay open (closing).
        std::vector<std::uint64_t> subs;
        for (const auto& [sub_id, sub] : conn->subs) subs.push_back(sub_id);
        for (std::uint64_t sub_id : subs) {
          end_subscription(*conn, sub_id, StreamEndReason::kServerShutdown,
                           "server shutting down");
        }
      }
    }
    if (draining_ && drain_finished()) break;

    poller.clear();
    if (listener_.valid()) poller.watch(listener_.fd(), true, false);
    // The HTTP listener outlives the drain start: /healthz keeps answering
    // (with 503) while the RPC side refuses work.
    if (http_listener_.valid()) poller.watch(http_listener_.fd(), true, false);
    poller.watch(inbox_->wake.read_fd(), true, false);
    for (const auto& [id, conn] : conns_) {
      if (conn->dead) continue;  // reaped at the end of this tick
      bool want_write = conn->out_pos < conn->out.size();
      poller.watch(conn->sock.fd(), true, want_write);
    }
    for (const auto& [id, hc] : http_conns_) {
      if (hc->dead) continue;
      poller.watch(hc->sock.fd(), !hc->responded,
                   hc->out_pos < hc->out.size());
    }
    std::vector<PollEvent> ready = poller.wait(kTickMs);

    for (const PollEvent& ev : ready) {
      if (listener_.valid() && ev.fd == listener_.fd()) {
        if (ev.readable) accept_new();
        continue;
      }
      if (ev.fd == inbox_->wake.read_fd()) {
        inbox_->wake.drain();
        continue;
      }
      if (http_listener_.valid() && ev.fd == http_listener_.fd()) {
        if (ev.readable) accept_http();
        continue;
      }
      {
        HttpConnection* hc = nullptr;
        for (auto& [id, h] : http_conns_) {
          if (h->sock.fd() == ev.fd) {
            hc = h.get();
            break;
          }
        }
        if (hc != nullptr) {
          if (ev.error) {
            hc->dead = true;
          } else {
            if (ev.readable && !hc->responded) handle_http_readable(*hc);
            if (ev.writable && !hc->dead) flush_http_writes(*hc);
          }
          continue;
        }
      }
      // Find the connection (ids are stable; fd reuse cannot alias because
      // a dropped connection leaves conns_ in the same tick).
      Connection* conn = nullptr;
      std::uint64_t conn_id = 0;
      for (auto& [id, c] : conns_) {
        if (c->sock.fd() == ev.fd) {
          conn = c.get();
          conn_id = id;
          break;
        }
      }
      if (conn == nullptr || conn->dead) continue;
      if (ev.error) {
        drop_connection(conn_id, "poll error");
        continue;
      }
      if (ev.readable) handle_readable(*conn);
      // handle_readable may have dropped (read error) or killed (write
      // error) the connection.
      if (conns_.find(conn_id) == conns_.end() || conn->dead) continue;
      if (ev.writable) flush_writes(*conn);
    }

    flush_completions();
    heartbeat_and_idle();
    reap_connections();
    reap_http_connections();
  }

  // Hard stop: anything still open closes now.
  std::vector<std::uint64_t> remaining;
  for (const auto& [id, conn] : conns_) remaining.push_back(id);
  for (std::uint64_t id : remaining) drop_connection(id, "server stopped");
  metrics_->gauge(kObsNetHttpConnections)
      .add(-static_cast<std::int64_t>(http_conns_.size()));
  http_conns_.clear();
  http_listener_.close();
}

bool ProfilingServer::drain_finished() {
  if (now() >= drain_deadline_) return true;
  for (const auto& [id, conn] : conns_) {
    if (conn->out_pos < conn->out.size() || conn->inflight.inflight() != 0) {
      return false;
    }
  }
  return true;
}

void ProfilingServer::accept_new() {
  for (;;) {
    Socket sock = AcceptOn(listener_);
    if (!sock.valid()) return;
    if (static_cast<int>(conns_.size()) >= options_.max_connections ||
        draining_) {
      // Admission control, layer 1: over capacity the connection is closed
      // immediately — the client sees EOF instead of an unbounded queue.
      metrics_->counter(kObsNetConnsRejected).inc();
      continue;
    }
    sock.set_nonblocking(true);
    sock.set_tcp_nodelay(true);
    auto conn = std::make_unique<Connection>(
        options_.max_frame_len, options_.quota_rate, options_.quota_burst,
        options_.max_inflight);
    conn->id = next_conn_id_++;
    conn->sock = std::move(sock);
    conn->last_recv = conn->last_send = now();
    metrics_->counter(kObsNetConnsAccepted).inc();
    metrics_->gauge(kObsNetConnections).add(1);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void ProfilingServer::handle_readable(Connection& c) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    IoResult r = c.sock.read_some(buf, sizeof buf);
    if (r.status == IoStatus::kWouldBlock) break;
    if (r.status == IoStatus::kClosed || r.status == IoStatus::kError) {
      drop_connection(c.id, "peer closed");
      return;
    }
    m_bytes_rx_.inc(static_cast<std::int64_t>(r.bytes));
    c.decoder.feed(buf, r.bytes);
    c.last_recv = now();
    if (r.bytes < sizeof buf) break;
  }
  Frame frame;
  for (;;) {
    try {
      if (!c.decoder.next(&frame)) break;
    } catch (const WireError&) {
      // Corrupt framing: there is no resynchronization point inside a byte
      // stream, so the only safe answer is to drop the connection.
      m_protocol_errors_.inc();
      drop_connection(c.id, "protocol error");
      return;
    }
    m_frames_rx_.inc();
    std::uint64_t conn_id = c.id;
    dispatch(c, frame);
    if (conns_.find(conn_id) == conns_.end()) return;  // dispatch dropped it
    if (c.dead) return;  // a reply hit a reset socket; ignore the rest
  }
}

void ProfilingServer::dispatch(Connection& c, const Frame& frame) {
  if (c.closing) return;  // goodbye already seen; ignore the tail
  // Checked before any envelope is opened, so a wrapped frame can neither
  // precede the handshake nor complete it.
  if (!c.got_hello && frame.type != MsgType::kHello) {
    m_protocol_errors_.inc();
    drop_connection(c.id, "first frame was not hello");
    return;
  }
  if (frame.type != MsgType::kTracedRequest) {
    dispatch_request(c, frame, TraceContext{});
    return;
  }
  // Trace-context envelope: adopt the client-stamped ids, then dispatch the
  // wrapped request as if it had arrived bare. The inner payload is the
  // tail of the envelope's payload — no copy of the frame header, same
  // request_id.
  Frame inner;
  TraceContext ctx;
  try {
    WireReader r(frame.payload);
    MsgType inner_type;
    ctx = DecodeTracedHeader(r, &inner_type);
    inner.type = inner_type;
    inner.request_id = frame.request_id;
    inner.payload.assign(
        frame.payload.begin() +
            static_cast<std::ptrdiff_t>(frame.payload.size() - r.remaining()),
        frame.payload.end());
  } catch (const WireError&) {
    m_protocol_errors_.inc();
    drop_connection(c.id, "malformed traced envelope");
    return;
  }
  TraceIdScope trace_scope(ctx.trace_id);
  dispatch_request(c, inner, ctx);
}

void ProfilingServer::dispatch_request(Connection& c, const Frame& frame,
                                       const TraceContext& ctx) {
  TraceSpan span(kObsNetDispatch);
  try {
    switch (frame.type) {
      case MsgType::kHello: {
        WireReader r(frame.payload);
        HelloMsg hello = HelloMsg::decode(r);
        if (hello.protocol_version != kProtocolVersion) {
          send_error(c, frame.request_id, ErrCode::kUnsupportedVersion,
                     "server speaks protocol version " +
                         std::to_string(kProtocolVersion));
          c.closing = true;
          return;
        }
        c.got_hello = true;
        // The hello name becomes the tenant key for cost attribution;
        // bounded so a hostile client cannot grow the tenant table rows.
        if (!hello.client_name.empty()) {
          c.client_name = hello.client_name.substr(0, 64);
        }
        c.tenant_slot = tenant_slot(c.client_name);
        HelloOkMsg ok;
        ok.max_inflight = options_.max_inflight;
        ok.credit_max = options_.credit_max;
        ok.heartbeat_seconds = options_.heartbeat_seconds;
        send_frame(c, EncodeMsgFrame(MsgType::kHelloOk, frame.request_id, ok));
        return;
      }
      case MsgType::kPing:
        if (draining_) return serve(c, frame, ctx, nullptr);  // shutting_down
        send_frame(c, EncodeEmptyFrame(MsgType::kPong, frame.request_id));
        return;
      case MsgType::kGoodbye:
        c.closing = true;
        return;
      case MsgType::kCredit:
        handle_credit(c, frame);
        return;
      case MsgType::kUnsubscribe:
        handle_unsubscribe(c, frame);
        return;
      case MsgType::kRegisterDataset:
        serve(c, frame, ctx, &ProfilingServer::handle_register);
        return;
      case MsgType::kSubmitDiscovery:
        serve(c, frame, ctx, &ProfilingServer::handle_submit_discovery);
        return;
      case MsgType::kQueryCover:
        serve(c, frame, ctx, &ProfilingServer::handle_query_cover);
        return;
      case MsgType::kApplyUpdate:
        serve(c, frame, ctx, &ProfilingServer::handle_apply_update);
        return;
      case MsgType::kSubscribe:
        serve(c, frame, ctx, &ProfilingServer::handle_subscribe);
        return;
      case MsgType::kSubmitQuery:
        serve(c, frame, ctx, &ProfilingServer::handle_submit_query);
        return;
      case MsgType::kTracedRequest:
      case MsgType::kHelloOk:
      case MsgType::kError:
      case MsgType::kRegisterOk:
      case MsgType::kDiscoveryResult:
      case MsgType::kCoverResult:
      case MsgType::kUpdateOk:
      case MsgType::kSubscribeOk:
      case MsgType::kCoverUpdate:
      case MsgType::kStreamEnd:
      case MsgType::kHeartbeat:
      case MsgType::kPong:
      case MsgType::kQueryResult:
      case MsgType::kCostTrailer:
        // Server->client codes (a nested kTracedRequest never gets here:
        // DecodeTracedHeader refuses it) pass the same drain and quota
        // gates as a request, then cost the connection.
        serve(c, frame, ctx, nullptr);
        return;
    }
  } catch (const WireError&) {
    // The frame header parsed but its payload did not match the schema.
    m_protocol_errors_.inc();
    drop_connection(c.id, "malformed payload");
  }
}

void ProfilingServer::serve(Connection& c, const Frame& frame,
                            const TraceContext& ctx, RequestHandler handler) {
  // Everything here is quota-charged, and refused outright while draining.
  if (draining_) {
    refuse(c, frame, ctx, "rejected", ErrCode::kShuttingDown,
           "server is draining");
    return;
  }
  m_requests_.inc();
  if (!c.bucket.try_take(now())) {
    metrics_->counter(kObsNetQuotaRejects).inc();
    refuse(c, frame, ctx, "rejected", ErrCode::kQuotaExceeded,
           "request quota exhausted; slow down");
    return;
  }
  if (handler == nullptr) {
    m_protocol_errors_.inc();
    drop_connection(c.id, "unexpected message direction");
    return;
  }
  (this->*handler)(c, frame, ctx);
}

void ProfilingServer::refuse(Connection& c, const Frame& frame,
                             const TraceContext& ctx, const char* outcome,
                             ErrCode code, const std::string& message) {
  RpcFinish fin;
  fin.rtype = RequestTypeName(frame.type);
  fin.outcome = outcome;
  fin.request_id = frame.request_id;
  fin.trace_id = ctx.trace_id;
  if (fin.rtype != nullptr) record_rpc(c, fin, 0);
  send_error(c, frame.request_id, code, message);
}

bool ProfilingServer::admit(Connection& c, const Frame& frame,
                            const TraceContext& ctx) {
  if (c.inflight.try_acquire()) return true;
  metrics_->counter(kObsNetInflightRejects).inc();
  refuse(c, frame, ctx, "rejected", ErrCode::kTooManyInFlight,
         "in-flight window full (" + std::to_string(c.inflight.max()) + ")");
  return false;
}

void ProfilingServer::handle_submit_discovery(Connection& c,
                                              const Frame& frame,
                                              const TraceContext& ctx) {
  WireReader r(frame.payload);
  SubmitDiscoveryMsg msg = SubmitDiscoveryMsg::decode(r);
  std::string semantics_error = DescribeSemanticsError(msg.semantics);
  if (!semantics_error.empty()) {
    send_error(c, frame.request_id, ErrCode::kBadRequest, semantics_error);
    return;
  }
  ProfileJob job = JobFromSubmit(msg, ctx);
  job.options.algorithm = msg.algorithm;
  submit_job(c, frame, ctx, std::move(job), msg.top_k);
}

void ProfilingServer::handle_submit_query(Connection& c, const Frame& frame,
                                          const TraceContext& ctx) {
  WireReader r(frame.payload);
  SubmitQueryMsg msg = SubmitQueryMsg::decode(r);
  DiscoveryQuery query;
  query.epsilon = msg.epsilon;
  query.max_lhs = static_cast<int>(
      std::min<std::uint32_t>(msg.max_lhs, 1u << 16));
  query.top_k = msg.top_k;
  query.ranking_mode = static_cast<RedundancyMode>(msg.ranking_mode);
  for (std::uint8_t col : msg.include_columns) {
    query.include_columns.push_back(static_cast<AttrId>(col));
  }
  for (std::uint8_t col : msg.exclude_columns) {
    query.exclude_columns.push_back(static_cast<AttrId>(col));
  }
  // Hostile-but-well-framed specs (epsilon out of [0,1], NaN, absurd arity)
  // decode fine and are rejected here with a per-request error; only
  // malformed bytes cost the connection. Schema-width checks happen when
  // the job runs against the resolved dataset.
  std::string spec_error = DescribeSemanticsError(msg.semantics);
  if (spec_error.empty()) spec_error = DescribeQueryError(query, /*num_cols=*/0);
  if (!spec_error.empty()) {
    send_error(c, frame.request_id, ErrCode::kBadRequest, spec_error);
    return;
  }
  ProfileJob job = JobFromSubmit(msg, ctx);
  job.options.query = std::move(query);
  submit_job(c, frame, ctx, std::move(job), msg.top_k);
}

void ProfilingServer::submit_job(Connection& c, const Frame& frame,
                                 const TraceContext& ctx, ProfileJob job,
                                 std::uint32_t top_k) {
  // A job on a missing dataset could only fail; answer before it takes a
  // window slot or a scheduler slot.
  if (!datasets_->contains(job.dataset)) {
    refuse(c, frame, ctx, "error", ErrCode::kUnknownDataset,
           "no dataset named '" + job.dataset + "'");
    return;
  }
  if (!admit(c, frame, ctx)) return;
  JobHandlePtr handle = scheduler_->submit(std::move(job));
  if (handle->rejected()) {
    c.inflight.release();
    metrics_->counter(kObsNetBusyRejects).inc();
    refuse(c, frame, ctx, "rejected", ErrCode::kServerBusy, handle->error());
    return;
  }
  handle->on_finish([inbox = inbox_, done = new_completion(c, frame, ctx),
                     top_k](const JobHandle& h) mutable {
    finish_job(h, top_k, &done);
    inbox->post(std::move(done));
  });
}

ProfilingServer::Completion ProfilingServer::new_completion(
    const Connection& c, const Frame& frame, const TraceContext& ctx) const {
  Completion done;
  done.conn_id = c.id;
  done.started = now();
  done.finish.rtype = RequestTypeName(frame.type);
  done.finish.request_id = frame.request_id;
  done.finish.trace_id = ctx.trace_id;
  return done;
}

void ProfilingServer::run_on_ops_pool(Connection& c, const Frame& frame,
                                      const TraceContext& ctx,
                                      ErrCode on_throw, OpsBody body) {
  if (!admit(c, frame, ctx)) return;
  // Blocking service calls run on the ops pool so the event loop never
  // waits on them; the answer comes back through the completion queue. The
  // pool inherits the dispatch-time TraceIdScope, so spans inside the task
  // land on the client's trace.
  Tracer& tracer = Tracer::Global();
  std::int64_t enq_us =
      (ctx.trace_id != 0 && tracer.enabled()) ? tracer.now_us() : 0;
  bool submitted = ops_pool_.submit([this, done = new_completion(c, frame, ctx),
                                     on_throw, enq_us,
                                     body = std::move(body)]() mutable {
    RpcFinish& fin = done.finish;
    Tracer& tracer = Tracer::Global();
    if (enq_us != 0 && tracer.enabled()) {
      tracer.record_span(kObsNetQueueWait, fin.trace_id, enq_us,
                         tracer.now_us(), TraceLane(fin.trace_id));
    }
    double run_start = now();
    bool ok = false;
    {
      // CPU attribution costs a thread-CPU clock syscall on each end;
      // only traced requests opted into that. Counter classification
      // (validations, partitions, cache traffic) stays on for everyone.
      CostLedgerScope cost_scope(&fin.cost, /*charge_cpu=*/fin.trace_id != 0);
      TraceSpan run_span(kObsNetOpsRun);
      try {
        ok = body(fin.request_id, &done.frame);
      } catch (const std::exception& e) {
        ErrorMsg err{on_throw, e.what()};
        done.frame = EncodeMsgFrame(MsgType::kError, fin.request_id, err);
      }
    }
    fin.outcome = ok ? "ok" : "error";
    fin.cost.bytes_streamed = static_cast<std::int64_t>(done.frame.size());
    fin.queue_seconds = run_start - done.started;
    fin.run_seconds = now() - run_start;
    fin.has_cost = true;
    if (ok && fin.trace_id != 0) {
      AppendCostTrailer(&done.frame, fin.request_id, fin.cost,
                        fin.queue_seconds, fin.run_seconds);
    }
    inbox_->post(std::move(done));
  });
  if (!submitted) {
    c.inflight.release();
    send_error(c, frame.request_id, ErrCode::kShuttingDown,
               "server is shutting down");
  }
}

void ProfilingServer::handle_register(Connection& c, const Frame& frame,
                                      const TraceContext& ctx) {
  WireReader r(frame.payload);
  RegisterDatasetMsg msg = RegisterDatasetMsg::decode(r);
  std::string semantics_error = DescribeSemanticsError(msg.semantics);
  if (!semantics_error.empty()) {
    send_error(c, frame.request_id, ErrCode::kBadRequest, semantics_error);
    return;
  }
  // CSV parsing and (for live datasets) the synchronous initial discovery
  // are far too slow for the event loop.
  run_on_ops_pool(
      c, frame, ctx, ErrCode::kBadRequest,
      [this, msg = std::move(msg)](std::uint64_t request_id,
                                   std::vector<std::uint8_t>* reply) {
        RawTable table = ParseCsvString(msg.csv_text);
        RegisterOkMsg ok;
        ok.rows = static_cast<std::uint32_t>(table.num_rows());
        ok.cols = static_cast<std::uint32_t>(table.num_cols());
        std::shared_ptr<const Relation> codes;
        if (msg.live && !live_->contains(msg.name)) {
          LiveDatasetOptions opts;
          opts.semantics = SemanticsFromWire(msg.semantics);
          codes = live_->create(msg.name, table, opts);
          // Live null != null codes are not the registry's null = null ones.
          if (opts.semantics != NullSemantics::kNullEqualsNull) codes.reset();
        }
        if (codes != nullptr) {
          datasets_->add_relation(msg.name, std::move(codes));
        } else {
          datasets_->add_table(msg.name, table);
        }
        *reply = EncodeMsgFrame(MsgType::kRegisterOk, request_id, ok);
        return true;
      });
}

void ProfilingServer::handle_query_cover(Connection& c, const Frame& frame,
                                         const TraceContext& ctx) {
  WireReader r(frame.payload);
  QueryCoverMsg msg = QueryCoverMsg::decode(r);
  // The ranking snapshot takes the dataset's profile lock, which a running
  // update batch may hold for a while.
  run_on_ops_pool(
      c, frame, ctx, ErrCode::kInternal,
      [this, msg = std::move(msg)](std::uint64_t request_id,
                                   std::vector<std::uint8_t>* reply) {
        if (!live_->contains(msg.dataset)) {
          ErrorMsg err{ErrCode::kUnknownDataset,
                       "no live dataset named '" + msg.dataset + "'"};
          *reply = EncodeMsgFrame(MsgType::kError, request_id, err);
          return false;
        }
        std::vector<FdRedundancy> ranking = live_->ranking(msg.dataset);
        CoverResultMsg ok;
        ok.total = static_cast<std::uint32_t>(ranking.size());
        ok.top = TopRanked(ranking, msg.top_k == 0 ? ok.total : msg.top_k);
        *reply = EncodeMsgFrame(MsgType::kCoverResult, request_id, ok);
        return true;
      });
}

void ProfilingServer::handle_apply_update(Connection& c, const Frame& frame,
                                          const TraceContext& ctx) {
  WireReader r(frame.payload);
  ApplyUpdateMsg msg = ApplyUpdateMsg::decode(r);
  // Like a job, a batch for a missing dataset could only fail; answer
  // before it takes a window slot.
  if (!live_->contains(msg.dataset)) {
    refuse(c, frame, ctx, "error", ErrCode::kUnknownDataset,
           "no live dataset named '" + msg.dataset + "'");
    return;
  }
  if (!admit(c, frame, ctx)) return;
  UpdateJob job;
  job.dataset = msg.dataset;
  job.batch.inserts = std::move(msg.inserts);
  job.batch.deletes.assign(msg.deletes.begin(), msg.deletes.end());
  // The trace id rides the LiveStore strand: incr.queue_wait / incr.batch
  // spans and the resulting CoverChangeEvent all carry the client's id.
  job.trace_id = ctx.trace_id;
  live_->submit(std::move(job))
      ->on_finish([inbox = inbox_, epoch = epoch_,
                   done = new_completion(c, frame, ctx)](
                      const UpdateJobHandle& h) mutable {
        done.finish.run_seconds = SecondsSince(epoch) - done.started;
        finish_update(h, &done);
        inbox->post(std::move(done));
      });
}

void ProfilingServer::handle_subscribe(Connection& c, const Frame& frame,
                                       const TraceContext&) {
  WireReader r(frame.payload);
  SubscribeMsg msg = SubscribeMsg::decode(r);
  if (!msg.dataset.empty() && !live_->contains(msg.dataset)) {
    send_error(c, frame.request_id, ErrCode::kUnknownDataset,
               "no live dataset named '" + msg.dataset + "'");
    return;
  }
  if (c.subs.count(frame.request_id) != 0) {
    send_error(c, frame.request_id, ErrCode::kBadRequest,
               "subscription id already in use");
    return;
  }
  Subscription sub{msg.dataset,
                   CreditWindow(msg.initial_credits, options_.credit_max,
                                options_.max_buffered_events)};
  SubscribeOkMsg ok;
  ok.granted_credits = sub.window.credits();
  c.subs.emplace(frame.request_id, std::move(sub));
  metrics_->gauge(kObsNetSubscriptions).add(1);
  send_frame(c, EncodeMsgFrame(MsgType::kSubscribeOk, frame.request_id, ok));
}

void ProfilingServer::handle_credit(Connection& c, const Frame& frame) {
  WireReader r(frame.payload);
  CreditMsg msg = CreditMsg::decode(r);
  auto it = c.subs.find(frame.request_id);
  // Credits for an already-ended stream are not an error: the StreamEnd
  // may still be in flight toward the client.
  if (it == c.subs.end()) return;
  for (std::vector<std::uint8_t>& buffered :
       it->second.window.grant(msg.credits)) {
    metrics_->counter(kObsNetStreamEvents).inc();
    send_frame(c, std::move(buffered));
  }
}

void ProfilingServer::handle_unsubscribe(Connection& c, const Frame& frame) {
  end_subscription(c, frame.request_id, StreamEndReason::kUnsubscribed, "");
}

void ProfilingServer::end_subscription(Connection& c, std::uint64_t sub_id,
                                       StreamEndReason reason,
                                       const std::string& detail) {
  auto it = c.subs.find(sub_id);
  if (it == c.subs.end()) return;
  c.subs.erase(it);
  metrics_->gauge(kObsNetSubscriptions).add(-1);
  StreamEndMsg end{reason, detail};
  send_frame(c, EncodeMsgFrame(MsgType::kStreamEnd, sub_id, end));
}

void ProfilingServer::finish_job(const JobHandle& h, std::uint32_t top_k,
                                 Completion* done) {
  RpcFinish& fin = done->finish;
  // The trailer follows requests the client traced; the handle's trace id
  // may also be one the scheduler minted for an untraced request.
  const bool want_trailer = fin.trace_id != 0;
  fin.outcome = "ok";
  fin.trace_id = h.trace_id();
  fin.queue_seconds = h.queue_seconds();
  fin.run_seconds = h.run_seconds();
  fin.has_cost = true;
  fin.cost = h.cost();

  if (h.state() == JobState::kFailed) {
    fin.outcome = "error";
    ErrorMsg err{h.invalid_request() ? ErrCode::kBadRequest
                                     : ErrCode::kInternal,
                 h.error()};
    done->frame = EncodeMsgFrame(MsgType::kError, fin.request_id, err);
    return;
  }

  // A cancelled or deadline-expired run still finishes with a report of
  // its partial cover, but no canonical cover, ranking or query answer; on
  // the wire that distinction is the state string.
  const ProfileReport* report = nullptr;
  try {
    report = &h.report();
  } catch (const std::exception&) {
    // Cancelled before it started: no report, counts stay zero.
  }
  const char* wire_state = JobStateName(h.state());
  if (h.state() != JobState::kDone) fin.outcome = wire_state;

  if (h.job().options.query) {
    QueryResultMsg msg;
    msg.state = wire_state;
    msg.queue_seconds = fin.queue_seconds;
    msg.run_seconds = fin.run_seconds;
    if (report != nullptr && report->query) {
      const QueryResult& qr = *report->query;
      msg.total = static_cast<std::uint32_t>(qr.fds.size());
      msg.early_terminated = qr.stats.early_terminated;
      msg.timed_out = qr.stats.timed_out;
      msg.validations = static_cast<std::uint64_t>(qr.stats.validations);
      msg.pruned_epsilon = static_cast<std::uint64_t>(qr.stats.pruned_epsilon);
      msg.pruned_arity = static_cast<std::uint64_t>(qr.stats.pruned_arity);
      msg.pruned_bound = static_cast<std::uint64_t>(qr.stats.pruned_bound);
      msg.fds.reserve(qr.fds.size());
      for (const RankedFd& f : qr.fds) {
        msg.fds.push_back({f.fd.to_string(), static_cast<double>(f.score)});
      }
    }
    done->frame = EncodeMsgFrame(MsgType::kQueryResult, fin.request_id, msg);
  } else {
    DiscoveryResultMsg msg;
    msg.state = wire_state;
    msg.queue_seconds = fin.queue_seconds;
    msg.run_seconds = fin.run_seconds;
    if (report != nullptr) {
      msg.cover_size = static_cast<std::uint32_t>(report->discovery.fds.size());
      msg.canonical_size = static_cast<std::uint32_t>(report->canonical.size());
      msg.top = TopRanked(report->ranking, top_k);
    }
    done->frame =
        EncodeMsgFrame(MsgType::kDiscoveryResult, fin.request_id, msg);
  }
  fin.cost.bytes_streamed += static_cast<std::int64_t>(done->frame.size());
  if (want_trailer) {
    // Any result frame (including cancelled / deadline_expired partials)
    // gets the trailer; only kError answers go bare, so a client reads the
    // trailer exactly when it got a result.
    AppendCostTrailer(&done->frame, fin.request_id, fin.cost,
                      fin.queue_seconds, fin.run_seconds);
  }
}

void ProfilingServer::finish_update(const UpdateJobHandle& h,
                                    Completion* done) {
  RpcFinish& fin = done->finish;
  const bool want_trailer = fin.trace_id != 0;
  fin.outcome = "ok";
  fin.trace_id = h.trace_id();
  fin.has_cost = true;
  fin.cost = h.cost();
  if (h.state() == UpdateJobState::kFailed) {
    fin.outcome = "error";
    ErrorMsg err{h.invalid_batch() ? ErrCode::kBadRequest : ErrCode::kInternal,
                 h.error()};
    done->frame = EncodeMsgFrame(MsgType::kError, fin.request_id, err);
    return;
  }
  const CoverDelta& delta = h.delta();
  UpdateOkMsg msg;
  msg.fds_added = static_cast<std::uint32_t>(delta.added.size());
  msg.fds_removed = static_cast<std::uint32_t>(delta.removed.size());
  msg.rebuilt = delta.stats.rebuilt;
  msg.seconds = delta.stats.seconds;
  done->frame = EncodeMsgFrame(MsgType::kUpdateOk, fin.request_id, msg);
  fin.cost.bytes_streamed += static_cast<std::int64_t>(done->frame.size());
  if (want_trailer) {
    AppendCostTrailer(&done->frame, fin.request_id, fin.cost,
                      fin.queue_seconds, fin.run_seconds);
  }
}

void ProfilingServer::deliver_events(std::vector<CoverChangeEvent> events) {
  Tracer& tracer = Tracer::Global();
  for (const CoverChangeEvent& ev : events) {
    // A delta born from a traced apply_update is tagged with the client's
    // trace id; the fan-out instant joins the same causal tree.
    if (ev.trace_id != 0 && tracer.enabled()) {
      tracer.record(TraceEvent{kObsNetStreamDelta, 'i', ev.trace_id,
                               tracer.now_us(), 0, 0, TraceLane(ev.trace_id)});
    }
    std::vector<std::string> added = FdStrings(ev.added);
    std::vector<std::string> removed = FdStrings(ev.removed);
    // Collect (conn, sub) pairs first: a slow-consumer verdict drops the
    // connection, which would invalidate iterators mid-walk.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> targets;
    for (const auto& [conn_id, conn] : conns_) {
      for (const auto& [sub_id, sub] : conn->subs) {
        if (sub.dataset.empty() || sub.dataset == ev.dataset) {
          targets.emplace_back(conn_id, sub_id);
        }
      }
    }
    for (const auto& [conn_id, sub_id] : targets) {
      auto cit = conns_.find(conn_id);
      if (cit == conns_.end()) continue;
      Connection& c = *cit->second;
      auto sit = c.subs.find(sub_id);
      if (sit == c.subs.end()) continue;
      CoverUpdateMsg msg;
      msg.dataset = ev.dataset;
      msg.batch_id = ev.batch_id;
      msg.added = added;
      msg.removed = removed;
      // Advisory: the credit count after this event if it ships now; for a
      // buffered event the window is already empty, which is what 0 says.
      msg.credits_left =
          sit->second.window.credits() > 0 ? sit->second.window.credits() - 1 : 0;
      std::vector<std::uint8_t> frame =
          EncodeMsgFrame(MsgType::kCoverUpdate, sub_id, msg);
      // push() only keeps the frame when it buffers, so hand it a copy and
      // ship the original ourselves on kSend.
      switch (sit->second.window.push(frame)) {
        case CreditWindow::Push::kSend:
          metrics_->counter(kObsNetStreamEvents).inc();
          send_frame(c, std::move(frame));
          break;
        case CreditWindow::Push::kBuffered:
          metrics_->counter(kObsNetStreamBuffered).inc();
          break;
        case CreditWindow::Push::kOverflow: {
          // Credit window and buffer both exhausted: the consumer is not
          // keeping up. End its stream and drop the connection so it can
          // never stall the other subscribers.
          metrics_->counter(kObsNetSlowConsumerDisconnects).inc();
          end_subscription(c, sub_id, StreamEndReason::kSlowConsumer,
                           "credit window and event buffer exhausted");
          c.closing = true;
          break;
        }
      }
    }
  }
}

void ProfilingServer::flush_completions() {
  std::vector<Completion> completions;
  std::vector<CoverChangeEvent> events;
  {
    MutexLock lock(&inbox_->mu);
    completions.swap(inbox_->completions);
    events.swap(inbox_->events);
  }
  for (Completion& done : completions) {
    auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;
    Connection& c = *it->second;
    c.inflight.release();
    double duration = now() - done.started;
    m_request_seconds_.record(duration);
    // Telemetry computed off-loop is applied here, on the loop thread that
    // owns the slow ring and tenant table.
    record_rpc(c, done.finish, duration);
    send_frame(c, std::move(done.frame));
  }
  // After the answers, so an update's reply precedes its cover delta.
  if (!events.empty()) deliver_events(std::move(events));
}

void ProfilingServer::heartbeat_and_idle() {
  double t = now();
  std::vector<std::uint64_t> idle;
  for (auto& [id, conn] : conns_) {
    if (options_.idle_timeout_seconds > 0 && !conn->closing &&
        t - conn->last_recv > options_.idle_timeout_seconds) {
      idle.push_back(id);
      continue;
    }
    // Heartbeats keep streaming connections verifiably alive (and NATs
    // open) while the cover happens not to change.
    if (options_.heartbeat_seconds > 0 && !conn->subs.empty() &&
        !conn->closing && t - conn->last_send >= options_.heartbeat_seconds) {
      HeartbeatMsg hb;
      hb.server_time_us = static_cast<std::uint64_t>(t * 1e6);
      metrics_->counter(kObsNetHeartbeats).inc();
      send_frame(*conn, EncodeMsgFrame(MsgType::kHeartbeat, 0, hb));
    }
  }
  for (std::uint64_t id : idle) {
    metrics_->counter(kObsNetIdleDisconnects).inc();
    drop_connection(id, "idle timeout");
  }
}

void ProfilingServer::send_frame(Connection& c, std::vector<std::uint8_t> frame) {
  if (c.dead) return;  // socket already failed; the frame has no ride home
  m_frames_tx_.inc();
  m_bytes_tx_.inc(static_cast<std::int64_t>(frame.size()));
  c.out.insert(c.out.end(), frame.begin(), frame.end());
  c.last_send = now();
  flush_writes(c);
}

void ProfilingServer::send_error(Connection& c, std::uint64_t request_id,
                                 ErrCode code, const std::string& message) {
  ErrorMsg err{code, message};
  send_frame(c, EncodeMsgFrame(MsgType::kError, request_id, err));
}

void ProfilingServer::flush_writes(Connection& c) {
  if (c.dead) return;
  while (c.out_pos < c.out.size()) {
    IoResult r = c.sock.write_some(c.out.data() + c.out_pos,
                                   c.out.size() - c.out_pos);
    if (r.status == IoStatus::kOk) {
      c.out_pos += r.bytes;
      continue;
    }
    if (r.status == IoStatus::kWouldBlock) break;
    // A peer reset mid-send (ECONNRESET/EPIPE) must NOT erase the
    // Connection here: writes happen deep inside dispatch, the heartbeat
    // sweep, and event fan-out, all of which still hold the reference or
    // are range-iterating conns_. Mark it; reap_connections() erases it at
    // the safe point at the end of the tick.
    mark_dead(c);
    return;
  }
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
    return;
  }
  if (c.out.size() - c.out_pos > options_.max_write_buffer_bytes) {
    // TCP-level slow consumer: the peer stopped reading. Same verdict as a
    // credit overflow — kill it before the buffer eats the server.
    metrics_->counter(kObsNetSlowConsumerDisconnects).inc();
    mark_dead(c);
  }
}

void ProfilingServer::mark_dead(Connection& c) {
  if (c.dead) return;
  c.dead = true;
  c.closing = true;
  // Nothing can be written anymore; drop the buffer now so a draining
  // shutdown never waits on bytes that have no way out.
  c.out.clear();
  c.out_pos = 0;
}

void ProfilingServer::reap_connections() {
  // The single place dead or fully-drained closing connections are erased:
  // once per tick, with no conns_ iteration active and no Connection
  // reference live on the stack. A closing connection first gets every
  // answer it is owed.
  std::vector<std::uint64_t> done;
  for (const auto& [id, conn] : conns_) {
    if (conn->dead ||
        (conn->closing && conn->out_pos >= conn->out.size() &&
         conn->inflight.inflight() == 0)) {
      done.push_back(id);
    }
  }
  for (std::uint64_t id : done) drop_connection(id, "dead or flushed");
}

// ---------------------------------------------------------- RPC telemetry

void ProfilingServer::record_rpc(Connection& c, const RpcFinish& fin,
                                 double duration) {
  m_rpc_requests_.inc();
  // Latency keyed by type x outcome: the registry is string-keyed, so the
  // family materializes lazily — only combinations that actually occur
  // show up in /metrics.
  rpc_outcome_histogram(fin.rtype, fin.outcome).record(duration);
  if (fin.queue_seconds > 0) {
    m_rpc_queue_seconds_.record(fin.queue_seconds);
  }
  if (fin.run_seconds > 0) {
    m_rpc_run_seconds_.record(fin.run_seconds);
  }
  if (fin.has_cost) {
    m_rpc_cpu_ns_.inc(std::max<std::int64_t>(fin.cost.cpu_ns, 0));
    m_rpc_validations_.inc(fin.cost.validations);
    m_rpc_partitions_built_.inc(fin.cost.partitions_built);
    m_rpc_bytes_streamed_.inc(fin.cost.bytes_streamed);
    c.total_cost.add(fin.cost);
    if (c.tenant_slot != nullptr) c.tenant_slot->add(fin.cost);
  }
  RpcRecord rec;
  rec.rtype = fin.rtype;
  rec.outcome = fin.outcome;
  rec.tenant = c.client_name;
  rec.trace_id = fin.trace_id;
  rec.request_id = fin.request_id;
  rec.conn_id = c.id;
  rec.end_seconds = now();
  rec.duration_seconds = duration;
  rec.queue_seconds = fin.queue_seconds;
  rec.run_seconds = fin.run_seconds;
  rec.cost = fin.cost;
  // SlowLog copies only entries that beat the current worst-N floor (one
  // double compare for everything else); the tracez ring then takes the
  // record by move so the tenant string is not reallocated.
  slowlog_.record(rec);
  tracez_.record(std::move(rec));
  // The request's server-side envelope span, drawn backwards from "now" so
  // it visually encloses net.queue_wait / net.ops.run / svc.job.run.
  Tracer& tracer = Tracer::Global();
  if (fin.trace_id != 0 && tracer.enabled()) {
    std::int64_t end_us = tracer.now_us();
    std::int64_t start_us = end_us - static_cast<std::int64_t>(duration * 1e6);
    tracer.record_span(kObsNetRpc, fin.trace_id, start_us, end_us,
                       TraceLane(fin.trace_id));
  }
}

Histogram& ProfilingServer::rpc_outcome_histogram(const char* rtype,
                                                  const char* outcome) {
  // Both names come from fixed literal tables (RequestTypeName and the
  // "ok"/"error" outcome strings), so pointer identity is a valid cache
  // key; a miss from a second literal address just re-resolves the same
  // registry slot once. Linear scan: the family tops out around two dozen
  // entries and the hit is almost always near the front.
  for (const auto& [t, o, h] : rpc_hist_cache_) {
    if (t == rtype && o == outcome) return *h;
  }
  std::string name =
      std::string("net.rpc.") + rtype + "." + outcome + "_seconds";
  Histogram& h = metrics_->histogram(name);
  rpc_hist_cache_.emplace_back(rtype, outcome, &h);
  return h;
}

CostLedger* ProfilingServer::tenant_slot(const std::string& tenant) {
  auto it = tenant_costs_.find(tenant);
  if (it == tenant_costs_.end()) {
    // Bounded tenant table: past the cap, cost lands in a shared overflow
    // row instead of letting hostile hello names grow server memory.
    if (tenant_costs_.size() >= 64) {
      return &tenant_costs_["(other)"];
    }
    it = tenant_costs_.emplace(tenant, CostLedger{}).first;
  }
  return &it->second;
}

// --------------------------------------------------- observability endpoint

void ProfilingServer::accept_http() {
  for (;;) {
    Socket sock = AcceptOn(http_listener_);
    if (!sock.valid()) return;
    if (static_cast<int>(http_conns_.size()) >= options_.max_http_connections) {
      metrics_->counter(kObsNetHttpConnsRejected).inc();
      continue;  // accept-then-close, same posture as the RPC listener
    }
    sock.set_nonblocking(true);
    auto hc = std::make_unique<HttpConnection>();
    hc->id = next_http_id_++;
    hc->sock = std::move(sock);
    metrics_->counter(kObsNetHttpConnsAccepted).inc();
    metrics_->gauge(kObsNetHttpConnections).add(1);
    http_conns_.emplace(hc->id, std::move(hc));
  }
}

void ProfilingServer::handle_http_readable(HttpConnection& h) {
  std::uint8_t buf[4096];
  for (;;) {
    IoResult r = h.sock.read_some(buf, sizeof buf);
    if (r.status == IoStatus::kWouldBlock) break;
    if (r.status == IoStatus::kClosed || r.status == IoStatus::kError) {
      h.dead = true;
      return;
    }
    h.in.append(reinterpret_cast<const char*>(buf), r.bytes);
    if (r.bytes < sizeof buf) break;
  }
  HttpRequest req;
  switch (ParseHttpRequest(h.in, &req, options_.max_http_request_bytes)) {
    case HttpParseStatus::kNeedMore:
      return;
    case HttpParseStatus::kTooLarge:
      metrics_->counter(kObsNetHttpBadRequests).inc();
      respond_http(h, 431, "text/plain; charset=utf-8",
                   "request head too large\n");
      return;
    case HttpParseStatus::kBad:
      metrics_->counter(kObsNetHttpBadRequests).inc();
      respond_http(h, 400, "text/plain; charset=utf-8",
                   "malformed request\n");
      return;
    case HttpParseStatus::kOk:
      break;
  }
  metrics_->counter(kObsNetHttpRequests).inc();
  if (req.method != "GET") {
    respond_http(h, 405, "text/plain; charset=utf-8",
                 "only GET is supported\n");
    return;
  }
  std::string path = req.target.substr(0, req.target.find('?'));
  if (path == "/metrics") {
    metrics_->refresh_process_gauges();
    respond_http(h, 200, "text/plain; version=0.0.4; charset=utf-8",
                 PrometheusText(*metrics_));
  } else if (path == "/healthz") {
    // Drain-aware: flips to 503 the moment shutdown() starts draining, so
    // load balancers stop routing before the listener actually closes.
    if (draining_) {
      respond_http(h, 503, "text/plain; charset=utf-8", "draining\n");
    } else {
      respond_http(h, 200, "text/plain; charset=utf-8", "ok\n");
    }
  } else if (path == "/slowlog") {
    respond_http(h, 200, "application/json", render_slowlog_json());
  } else if (path == "/tracez") {
    respond_http(h, 200, "application/json", render_tracez_json());
  } else {
    respond_http(h, 404, "text/plain; charset=utf-8", "unknown path\n");
  }
}

void ProfilingServer::respond_http(HttpConnection& h, int status,
                                   const std::string& content_type,
                                   const std::string& body) {
  h.out = RenderHttpResponse(status, content_type, body);
  h.out_pos = 0;
  h.responded = true;
  flush_http_writes(h);
}

void ProfilingServer::flush_http_writes(HttpConnection& h) {
  if (h.dead) return;
  while (h.out_pos < h.out.size()) {
    IoResult r = h.sock.write_some(h.out.data() + h.out_pos,
                                   h.out.size() - h.out_pos);
    if (r.status == IoStatus::kOk) {
      h.out_pos += r.bytes;
      continue;
    }
    if (r.status == IoStatus::kWouldBlock) return;
    h.dead = true;
    return;
  }
  // Close-after-response: HTTP/1.0, Connection: close. The reaper at the
  // end of the tick erases it.
  if (h.responded) h.dead = true;
}

void ProfilingServer::reap_http_connections() {
  std::vector<std::uint64_t> done;
  for (const auto& [id, hc] : http_conns_) {
    if (hc->dead) done.push_back(id);
  }
  for (std::uint64_t id : done) {
    http_conns_.erase(id);
    metrics_->gauge(kObsNetHttpConnections).add(-1);
  }
}

std::string ProfilingServer::render_slowlog_json() {
  double t = now();
  std::string out =
      "{\"capacity\":" + std::to_string(slowlog_.capacity()) + ",\"slowest\":[";
  bool first = true;
  for (const RpcRecord& rec : slowlog_.worst()) {
    if (!first) out += ",";
    first = false;
    out += RpcRecordJson(rec, t);
  }
  out += "],\"tenants\":{";
  first = true;
  for (const auto& [tenant, cost] : tenant_costs_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(tenant) + "\":" + CostLedgerJson(cost);
  }
  out += "}}";
  return out;
}

std::string ProfilingServer::render_tracez_json() {
  double t = now();
  std::string out = "{\"recent\":[";
  bool first = true;
  for (const RpcRecord& rec : tracez_.recent()) {
    if (!first) out += ",";
    first = false;
    out += RpcRecordJson(rec, t);
  }
  out += "]}";
  return out;
}

void ProfilingServer::drop_connection(std::uint64_t conn_id, const char*) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  metrics_->gauge(kObsNetSubscriptions)
      .add(-static_cast<std::int64_t>(it->second->subs.size()));
  metrics_->counter(kObsNetConnsClosed).inc();
  metrics_->gauge(kObsNetConnections).add(-1);
  conns_.erase(it);
  // Answers still in flight for this connection are dropped on arrival
  // (flush_completions finds no connection).
}

}  // namespace dhyfd::net
