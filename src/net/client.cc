#include "net/client.h"

#include <cstring>
#include <optional>
#include <utility>

#include "obs/obs_schema.gen.h"
#include "obs/trace.h"

namespace dhyfd::net {

namespace {

/// Per-RPC client-side trace context. When the global tracer is enabled the
/// call runs under a trace id (the caller's, or a fresh one) and records a
/// "net.client.call" span — the root of the request's causal tree, which
/// the server-side spans join once the id crosses the wire.
class CallTrace {
 public:
  CallTrace() {
    Tracer& tracer = Tracer::Global();
    std::uint64_t current = CurrentTraceId();
    if (current != 0) {
      // An explicit TraceIdScope marks this call for end-to-end attribution
      // even when span recording is off: the envelope still crosses the
      // wire, so the server charges CPU and returns a cost trailer.
      trace_id_ = current;
    } else if (tracer.enabled()) {
      trace_id_ = tracer.next_trace_id();
      scope_.emplace(trace_id_);
    } else {
      return;  // untraced: bare frame, no envelope, no trailer
    }
    if (tracer.enabled()) span_.emplace(kObsNetClientCall);
  }

  std::uint64_t trace_id() const { return trace_id_; }

 private:
  std::uint64_t trace_id_ = 0;
  std::optional<TraceIdScope> scope_;
  std::optional<TraceSpan> span_;
};

/// Decodes one subscription-side frame. Exhaustive over MsgType so adding a
/// stream frame type forces a decode path here; the callers have already
/// checked is_stream_type, so the non-stream arms mean a logic bug, not a
/// peer protocol violation — and unlike the old `default: heartbeat` shape
/// they can never silently misread a future frame type as a keepalive.
StreamEvent DecodeStreamEvent(const Frame& frame) {
  StreamEvent ev;
  WireReader r(frame.payload);
  switch (frame.type) {
    case MsgType::kCoverUpdate:
      ev.kind = StreamEvent::Kind::kCoverUpdate;
      ev.sub_id = frame.request_id;
      ev.update = CoverUpdateMsg::decode(r);
      break;
    case MsgType::kStreamEnd:
      ev.kind = StreamEvent::Kind::kStreamEnd;
      ev.sub_id = frame.request_id;
      ev.end = StreamEndMsg::decode(r);
      break;
    case MsgType::kHeartbeat:
      ev.kind = StreamEvent::Kind::kHeartbeat;
      ev.heartbeat = HeartbeatMsg::decode(r);
      break;
    case MsgType::kHello:
    case MsgType::kRegisterDataset:
    case MsgType::kSubmitDiscovery:
    case MsgType::kQueryCover:
    case MsgType::kApplyUpdate:
    case MsgType::kSubscribe:
    case MsgType::kCredit:
    case MsgType::kUnsubscribe:
    case MsgType::kPing:
    case MsgType::kGoodbye:
    case MsgType::kSubmitQuery:
    case MsgType::kTracedRequest:
    case MsgType::kHelloOk:
    case MsgType::kError:
    case MsgType::kRegisterOk:
    case MsgType::kDiscoveryResult:
    case MsgType::kCoverResult:
    case MsgType::kUpdateOk:
    case MsgType::kSubscribeOk:
    case MsgType::kPong:
    case MsgType::kQueryResult:
    case MsgType::kCostTrailer:
      throw std::runtime_error("DecodeStreamEvent on non-stream frame");
  }
  return ev;
}

}  // namespace

template <typename Msg>
void BlockingClient::send_request(MsgType type, std::uint64_t request_id,
                                  const Msg& msg, std::uint64_t trace_id) {
  WireWriter w;
  msg.encode(w);
  if (trace_id != 0) {
    // Stamp the request: the envelope adds 17 bytes (trace id, span id,
    // inner type) and the server adopts the ids for all its spans.
    TraceContext ctx;
    ctx.trace_id = trace_id;
    ctx.span_id = Tracer::Global().next_trace_id();
    sock_.write_all(EncodeTracedFrame(type, request_id, w.bytes(), ctx));
    return;
  }
  sock_.write_all(EncodeFrame(type, request_id, w.bytes()));
}

void BlockingClient::read_cost_trailer(std::uint64_t request_id,
                                       std::uint64_t trace_id) {
  // Trailers pair with trace envelopes: the server only appends one when
  // the request arrived wrapped, so an untraced call must not wait for it
  // (and pays no extra reads on the fast path).
  if (trace_id == 0) return;
  Frame trailer = wait_response(request_id, MsgType::kCostTrailer);
  WireReader r(trailer.payload);
  last_cost_ = CostTrailerMsg::decode(r);
  has_last_cost_ = true;
}

BlockingClient::BlockingClient(const std::string& host, std::uint16_t port,
                               const std::string& client_name,
                               double timeout_seconds)
    : timeout_seconds_(timeout_seconds) {
  sock_ = ConnectTcp(host, port);
  sock_.set_tcp_nodelay(true);
  sock_.set_recv_timeout(timeout_seconds);
  HelloMsg hello;
  hello.client_name = client_name;
  std::uint64_t id = next_request_id();
  sock_.write_all(EncodeMsgFrame(MsgType::kHello, id, hello));
  Frame reply = wait_response(id, MsgType::kHelloOk);
  WireReader r(reply.payload);
  limits_ = HelloOkMsg::decode(r);
}

RegisterOkMsg BlockingClient::register_dataset(const std::string& name,
                                               const std::string& csv_text,
                                               bool live,
                                               std::uint8_t semantics) {
  RegisterDatasetMsg msg;
  msg.name = name;
  msg.csv_text = csv_text;
  msg.live = live;
  msg.semantics = semantics;
  CallTrace trace;
  std::uint64_t id = next_request_id();
  send_request(MsgType::kRegisterDataset, id, msg, trace.trace_id());
  Frame reply = wait_response(id, MsgType::kRegisterOk);
  read_cost_trailer(id, trace.trace_id());
  WireReader r(reply.payload);
  return RegisterOkMsg::decode(r);
}

DiscoveryResultMsg BlockingClient::submit_discovery(
    const SubmitDiscoveryMsg& request) {
  CallTrace trace;
  std::uint64_t id = next_request_id();
  send_request(MsgType::kSubmitDiscovery, id, request, trace.trace_id());
  Frame reply = wait_response(id, MsgType::kDiscoveryResult);
  read_cost_trailer(id, trace.trace_id());
  WireReader r(reply.payload);
  return DiscoveryResultMsg::decode(r);
}

QueryResultMsg BlockingClient::submit_query(const SubmitQueryMsg& request) {
  CallTrace trace;
  std::uint64_t id = next_request_id();
  send_request(MsgType::kSubmitQuery, id, request, trace.trace_id());
  Frame reply = wait_response(id, MsgType::kQueryResult);
  read_cost_trailer(id, trace.trace_id());
  WireReader r(reply.payload);
  return QueryResultMsg::decode(r);
}

CoverResultMsg BlockingClient::query_cover(const std::string& dataset,
                                           std::uint32_t top_k) {
  QueryCoverMsg msg;
  msg.dataset = dataset;
  msg.top_k = top_k;
  CallTrace trace;
  std::uint64_t id = next_request_id();
  send_request(MsgType::kQueryCover, id, msg, trace.trace_id());
  Frame reply = wait_response(id, MsgType::kCoverResult);
  read_cost_trailer(id, trace.trace_id());
  WireReader r(reply.payload);
  return CoverResultMsg::decode(r);
}

UpdateOkMsg BlockingClient::apply_update(const ApplyUpdateMsg& request) {
  CallTrace trace;
  std::uint64_t id = next_request_id();
  send_request(MsgType::kApplyUpdate, id, request, trace.trace_id());
  Frame reply = wait_response(id, MsgType::kUpdateOk);
  read_cost_trailer(id, trace.trace_id());
  WireReader r(reply.payload);
  return UpdateOkMsg::decode(r);
}

void BlockingClient::ping() {
  std::uint64_t id = next_request_id();
  sock_.write_all(EncodeEmptyFrame(MsgType::kPing, id));
  wait_response(id, MsgType::kPong);
}

void BlockingClient::goodbye() {
  if (!sock_.valid()) return;
  sock_.write_all(EncodeEmptyFrame(MsgType::kGoodbye, next_request_id()));
  sock_.close();
}

std::uint64_t BlockingClient::subscribe(const std::string& dataset,
                                        std::uint32_t initial_credits,
                                        std::uint32_t* granted) {
  SubscribeMsg msg;
  msg.dataset = dataset;
  msg.initial_credits = initial_credits;
  // The subscribe request id doubles as the subscription id: every
  // kCoverUpdate / kStreamEnd for this stream carries it.
  std::uint64_t id = next_request_id();
  sock_.write_all(EncodeMsgFrame(MsgType::kSubscribe, id, msg));
  Frame reply = wait_response(id, MsgType::kSubscribeOk);
  WireReader r(reply.payload);
  SubscribeOkMsg ok = SubscribeOkMsg::decode(r);
  if (granted != nullptr) *granted = ok.granted_credits;
  return id;
}

void BlockingClient::grant_credits(std::uint64_t sub_id,
                                   std::uint32_t credits) {
  CreditMsg msg;
  msg.credits = credits;
  sock_.write_all(EncodeMsgFrame(MsgType::kCredit, sub_id, msg));
}

void BlockingClient::unsubscribe(std::uint64_t sub_id) {
  sock_.write_all(EncodeEmptyFrame(MsgType::kUnsubscribe, sub_id));
}

bool BlockingClient::poll_event(StreamEvent* out, double timeout_seconds) {
  if (!events_.empty()) {
    *out = std::move(events_.front());
    events_.pop_front();
    return true;
  }
  // One bounded read: SO_RCVTIMEO turns "nothing arrived" into a timeout
  // error from read_exact, which poll_event reports as false. The narrowed
  // timeout is restored on every exit path — success, timeout, or throw —
  // so later blocking RPCs keep the constructor-configured bound. A zero
  // SO_RCVTIMEO would mean "block forever", the opposite of a 0-second
  // poll, hence the 1ms floor.
  struct RestoreRecvTimeout {
    Socket* sock;
    double seconds;
    ~RestoreRecvTimeout() {
      try {
        if (sock->valid()) sock->set_recv_timeout(seconds);
      } catch (...) {
        // Unwinding already; the socket is unusable anyway.
      }
    }
  } restore{&sock_, timeout_seconds_};
  sock_.set_recv_timeout(timeout_seconds < 0.001 ? 0.001 : timeout_seconds);
  Frame frame;
  bool got;
  try {
    got = read_one(&frame);
  } catch (const std::runtime_error& e) {
    if (std::string(e.what()).find("timed out") != std::string::npos) {
      return false;
    }
    throw;
  }
  if (!got) throw std::runtime_error("connection closed by server");
  if (!is_stream_type(frame.type)) {
    throw std::runtime_error("unexpected non-stream frame while polling");
  }
  *out = DecodeStreamEvent(frame);
  return true;
}

void BlockingClient::send_bytes(const void* data, std::size_t len) {
  sock_.write_all(static_cast<const std::uint8_t*>(data), len);
}

void BlockingClient::send_frame(MsgType type, std::uint64_t request_id,
                                const std::vector<std::uint8_t>& payload) {
  sock_.write_all(EncodeFrame(type, request_id, payload));
}

bool BlockingClient::read_frame(Frame* out) { return read_one(out); }

bool BlockingClient::read_one(Frame* out) {
  std::uint8_t len_bytes[kLengthPrefixBytes];
  if (!sock_.read_exact(len_bytes, sizeof len_bytes)) return false;
  std::uint32_t len = static_cast<std::uint32_t>(len_bytes[0]) |
                      static_cast<std::uint32_t>(len_bytes[1]) << 8 |
                      static_cast<std::uint32_t>(len_bytes[2]) << 16 |
                      static_cast<std::uint32_t>(len_bytes[3]) << 24;
  if (len < kFrameHeaderBytes || len > kDefaultMaxFrameLen) {
    throw std::runtime_error("invalid frame length from server");
  }
  std::vector<std::uint8_t> body(len);
  if (!sock_.read_exact(body.data(), body.size())) {
    throw std::runtime_error("connection closed mid-frame");
  }
  out->type = static_cast<MsgType>(body[0]);
  if (!IsKnownMsgType(body[0])) {
    throw std::runtime_error("unknown message type from server");
  }
  std::uint64_t id = 0;
  for (int i = 0; i < 8; ++i) {
    id |= static_cast<std::uint64_t>(body[1 + i]) << (8 * i);
  }
  out->request_id = id;
  out->payload.assign(body.begin() + kFrameHeaderBytes, body.end());
  return true;
}

Frame BlockingClient::wait_response(std::uint64_t request_id,
                                    MsgType expected) {
  Frame frame;
  for (;;) {
    if (!read_one(&frame)) {
      sock_.close();
      throw std::runtime_error("connection closed by server");
    }
    if (is_stream_type(frame.type)) {
      // Subscription traffic interleaves freely with responses; stash it
      // for poll_event() instead of dropping it on the floor.
      events_.push_back(DecodeStreamEvent(frame));
      continue;
    }
    if (frame.request_id != request_id) {
      // A response to someone else's id on a single-threaded client is a
      // server bug or a protocol violation; either way, bail out.
      throw std::runtime_error("response for unexpected request id");
    }
    if (frame.type == MsgType::kError) {
      WireReader r(frame.payload);
      ErrorMsg err = ErrorMsg::decode(r);
      throw RpcError(err.code, err.message);
    }
    if (frame.type != expected) {
      throw std::runtime_error("unexpected response type");
    }
    return frame;
  }
}

}  // namespace dhyfd::net
