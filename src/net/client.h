#ifndef DHYFD_NET_CLIENT_H_
#define DHYFD_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/messages.h"
#include "net/socket.h"
#include "net/wire.h"

namespace dhyfd::net {

/// A server-side error reply, rethrown on the client as an exception so the
/// typed call sites stay simple. code() distinguishes retryable rejections
/// (kQuotaExceeded, kTooManyInFlight, kServerBusy) from real failures.
class RpcError : public std::runtime_error {
 public:
  RpcError(ErrCode code, const std::string& message)
      : std::runtime_error(std::string(ErrCodeName(code)) + ": " + message),
        code_(code) {}
  ErrCode code() const { return code_; }

 private:
  ErrCode code_;
};

/// A stream-side frame (subscription traffic) surfaced by poll_event().
struct StreamEvent {
  enum class Kind { kCoverUpdate, kStreamEnd, kHeartbeat };
  Kind kind = Kind::kHeartbeat;
  /// Subscription id for kCoverUpdate / kStreamEnd; 0 for heartbeats.
  std::uint64_t sub_id = 0;
  CoverUpdateMsg update;   // kCoverUpdate only
  StreamEndMsg end;        // kStreamEnd only
  HeartbeatMsg heartbeat;  // kHeartbeat only
};

/// Synchronous client for the ProfilingServer: one blocking TCP socket, one
/// outstanding request at a time per call site (request ids still match
/// responses, so interleaved stream frames are fine). Stream frames that
/// arrive while a response is awaited are queued and drained later with
/// poll_event(). Not thread-safe; use one client per thread.
///
/// Every typed call throws RpcError when the server answers kError, and
/// std::runtime_error on transport failures (connection dropped, timeout,
/// protocol violation).
class BlockingClient {
 public:
  /// Connects and performs the hello handshake. `timeout_seconds` bounds
  /// every blocking read on this connection.
  BlockingClient(const std::string& host, std::uint16_t port,
                 const std::string& client_name = "dhyfd-client",
                 double timeout_seconds = 30);

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  /// Limits announced by the server's hello reply.
  const HelloOkMsg& server_limits() const { return limits_; }

  // -- requests -------------------------------------------------------------
  RegisterOkMsg register_dataset(const std::string& name,
                                 const std::string& csv_text, bool live,
                                 std::uint8_t semantics = 0);
  DiscoveryResultMsg submit_discovery(const SubmitDiscoveryMsg& request);
  /// Rank-driven discovery query (approximate thresholds, arity bounds,
  /// top-k).
  QueryResultMsg submit_query(const SubmitQueryMsg& request);
  CoverResultMsg query_cover(const std::string& dataset,
                             std::uint32_t top_k = 0);
  UpdateOkMsg apply_update(const ApplyUpdateMsg& request);
  void ping();
  /// Polite shutdown: sends kGoodbye and closes the socket.
  void goodbye();

  // -- streaming ------------------------------------------------------------
  /// Subscribes to cover updates for `dataset` ("" = all live datasets);
  /// returns the subscription id carried by its kCoverUpdate/kStreamEnd
  /// frames. `granted` (optional) receives the server-clamped credit count.
  std::uint64_t subscribe(const std::string& dataset,
                          std::uint32_t initial_credits,
                          std::uint32_t* granted = nullptr);
  /// Tops up a subscription's credit window (fire-and-forget).
  void grant_credits(std::uint64_t sub_id, std::uint32_t credits);
  /// Fire-and-forget; the stream answers with kStreamEnd(kUnsubscribed).
  void unsubscribe(std::uint64_t sub_id);

  /// Returns the next stream frame, waiting up to `timeout_seconds` for one
  /// to arrive; false on timeout. Queued frames are returned first.
  bool poll_event(StreamEvent* out, double timeout_seconds);

  /// Raw escape hatches for protocol tests: send arbitrary bytes / a frame,
  /// and read one raw frame (stream frames NOT diverted).
  void send_bytes(const void* data, std::size_t len);
  void send_frame(MsgType type, std::uint64_t request_id,
                  const std::vector<std::uint8_t>& payload);
  bool read_frame(Frame* out);

  /// True until the transport fails or the server closes the connection.
  bool connected() const { return sock_.valid(); }

  // -- cost attribution ------------------------------------------------------
  /// True once a *traced* RPC completed successfully
  /// (one issued under a TraceIdScope or with the global tracer enabled);
  /// the server's per-request cost trailer is then available in
  /// last_cost(). Untraced calls skip the trailer on both ends so the
  /// fast path pays nothing for attribution it never asked for.
  bool has_last_cost() const { return has_last_cost_; }
  /// Server-side resource ledger of the most recent traced successful RPC
  /// (CPU-ns, validations, partitions built, cache traffic, reply bytes).
  const CostTrailerMsg& last_cost() const { return last_cost_; }

 private:
  std::uint64_t next_request_id() { return next_request_id_++; }
  /// Sends one request frame, wrapped in a kTracedRequest envelope when
  /// `trace_id` is non-zero. Instantiated only in client.cc.
  template <typename Msg>
  void send_request(MsgType type, std::uint64_t request_id, const Msg& msg,
                    std::uint64_t trace_id);
  /// A successful result for a *traced* request (one that went out wrapped
  /// in a kTracedRequest envelope) is followed by a kCostTrailer with the
  /// same request id; read it into last_cost_. Untraced requests get no
  /// trailer, so this is a no-op for them.
  void read_cost_trailer(std::uint64_t request_id, std::uint64_t trace_id);
  /// Reads frames until the response for `request_id` arrives; stream
  /// frames encountered on the way are queued. Throws RpcError on kError.
  Frame wait_response(std::uint64_t request_id, MsgType expected);
  bool read_one(Frame* out);
  static bool is_stream_type(MsgType type) {
    return type == MsgType::kCoverUpdate || type == MsgType::kStreamEnd ||
           type == MsgType::kHeartbeat;
  }

  Socket sock_;
  HelloOkMsg limits_;
  /// Constructor-configured recv timeout; poll_event() temporarily narrows
  /// SO_RCVTIMEO to its own bound and must restore this one afterwards.
  double timeout_seconds_;
  std::uint64_t next_request_id_ = 1;
  std::deque<StreamEvent> events_;
  CostTrailerMsg last_cost_;
  bool has_last_cost_ = false;
};

}  // namespace dhyfd::net

#endif  // DHYFD_NET_CLIENT_H_
