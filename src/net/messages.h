#ifndef DHYFD_NET_MESSAGES_H_
#define DHYFD_NET_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.h"

namespace dhyfd::net {

/// Typed payload schemas for every MsgType. Each message knows how to
/// encode itself into a WireWriter and how to decode itself from a
/// WireReader; decode throws WireError on any malformed field and verifies
/// the payload was consumed exactly. Element counts are validated against
/// the bytes actually present before anything is reserved, so a hostile
/// count field cannot trigger a multi-gigabyte allocation.

/// The one wire schema. A hello that announces any other version gets
/// kError(kUnsupportedVersion) and the connection is closed. Every request
/// may arrive wrapped in a kTracedRequest envelope, and every successful
/// result of a wrapped request is followed by a kCostTrailer.
constexpr std::uint32_t kProtocolVersion = 4;

struct HelloMsg {
  std::uint32_t protocol_version = kProtocolVersion;
  std::string client_name;

  void encode(WireWriter& w) const;
  static HelloMsg decode(WireReader& r);
};

/// Handshake reply: the limits this connection must respect. A client that
/// exceeds max_inflight or lets its quota run dry gets per-request kError
/// replies; one that overruns its subscription credit buffer is dropped.
struct HelloOkMsg {
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint32_t max_inflight = 0;
  std::uint32_t credit_max = 0;
  double heartbeat_seconds = 0;

  void encode(WireWriter& w) const;
  static HelloOkMsg decode(WireReader& r);
};

struct ErrorMsg {
  ErrCode code = ErrCode::kInternal;
  std::string message;

  void encode(WireWriter& w) const;
  static ErrorMsg decode(WireReader& r);
};

struct RegisterDatasetMsg {
  std::string name;
  std::string csv_text;
  /// Also create a live (subscribable, updatable) dataset in the LiveStore.
  bool live = false;
  /// NullSemantics as its underlying integer value.
  std::uint8_t semantics = 0;

  void encode(WireWriter& w) const;
  static RegisterDatasetMsg decode(WireReader& r);
};

struct RegisterOkMsg {
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;

  void encode(WireWriter& w) const;
  static RegisterOkMsg decode(WireReader& r);
};

struct SubmitDiscoveryMsg {
  std::string dataset;
  std::string algorithm = "dhyfd";
  std::uint8_t semantics = 0;
  std::int32_t priority = 0;
  /// Per-request deadline, mapped onto the job's cooperative time limit
  /// (util/deadline.h); 0 = none.
  std::uint32_t deadline_ms = 0;
  /// How many ranked FDs the response should carry (0 = none).
  std::uint32_t top_k = 0;
  /// Requested intra-job parallelism — threads the discovery stage may
  /// shard over, including the job's own worker (0 or 1 = sequential). The
  /// server clamps to its pool size; the answer is bit-identical at any
  /// degree.
  std::uint32_t parallelism = 0;

  void encode(WireWriter& w) const;
  static SubmitDiscoveryMsg decode(WireReader& r);
};

/// One ranked FD, rendered in numeric form ("{1,5} -> {3}").
struct RankedFdMsg {
  std::string fd;
  double redundancy = 0;
};

struct DiscoveryResultMsg {
  /// JobStateName() of the terminal state ("done", "cancelled", ...).
  std::string state;
  std::uint32_t cover_size = 0;
  std::uint32_t canonical_size = 0;
  double queue_seconds = 0;
  double run_seconds = 0;
  std::vector<RankedFdMsg> top;

  void encode(WireWriter& w) const;
  static DiscoveryResultMsg decode(WireReader& r);
};

/// A rank-driven discovery query (src/query/) against a
/// registered dataset. Decode is deliberately permissive about *semantic*
/// values (a hostile epsilon or an absurd arity bound still decodes); the
/// server validates the spec with DescribeQueryError and answers
/// kError(kBadRequest) rather than dropping the connection.
struct SubmitQueryMsg {
  std::string dataset;
  std::uint8_t semantics = 0;
  std::int32_t priority = 0;
  /// Per-request deadline, mapped onto the job's cooperative time limit
  /// (util/deadline.h); 0 = none.
  std::uint32_t deadline_ms = 0;
  /// g3-style error threshold in [0, 1]; 0 = exact discovery.
  double epsilon = 0;
  /// Maximum LHS arity (0 = unbounded).
  std::uint32_t max_lhs = 0;
  /// Keep only the k best-ranked FDs (0 = all).
  std::uint32_t top_k = 0;
  /// RedundancyMode as its underlying integer value.
  std::uint8_t ranking_mode = 0;
  /// Column scope; empty include list = all columns.
  std::vector<std::uint8_t> include_columns;
  std::vector<std::uint8_t> exclude_columns;
  /// Requested intra-job parallelism (see SubmitDiscoveryMsg). Applies to
  /// the full-discovery query path; the top-k lattice walk is sequential
  /// and ignores it.
  std::uint32_t parallelism = 0;

  void encode(WireWriter& w) const;
  static SubmitQueryMsg decode(WireReader& r);
};

/// Answer to kSubmitQuery. `fds` carries the ranked answer in
/// rank order; the pruning counters mirror QueryStats so a client can see
/// why the search stopped.
struct QueryResultMsg {
  /// JobStateName() of the terminal state ("done", "cancelled", ...).
  std::string state;
  std::uint32_t total = 0;  // FDs in the (possibly truncated) answer
  bool early_terminated = false;
  bool timed_out = false;
  std::uint64_t validations = 0;
  std::uint64_t pruned_epsilon = 0;
  std::uint64_t pruned_arity = 0;
  std::uint64_t pruned_bound = 0;
  double queue_seconds = 0;
  double run_seconds = 0;
  std::vector<RankedFdMsg> fds;

  void encode(WireWriter& w) const;
  static QueryResultMsg decode(WireReader& r);
};

struct QueryCoverMsg {
  std::string dataset;
  std::uint32_t top_k = 0;  // 0 = all

  void encode(WireWriter& w) const;
  static QueryCoverMsg decode(WireReader& r);
};

struct CoverResultMsg {
  std::uint32_t total = 0;
  std::vector<RankedFdMsg> top;

  void encode(WireWriter& w) const;
  static CoverResultMsg decode(WireReader& r);
};

struct ApplyUpdateMsg {
  std::string dataset;
  std::vector<std::vector<std::string>> inserts;
  std::vector<std::int64_t> deletes;

  void encode(WireWriter& w) const;
  static ApplyUpdateMsg decode(WireReader& r);
};

struct UpdateOkMsg {
  std::uint32_t fds_added = 0;
  std::uint32_t fds_removed = 0;
  bool rebuilt = false;
  double seconds = 0;

  void encode(WireWriter& w) const;
  static UpdateOkMsg decode(WireReader& r);
};

struct SubscribeMsg {
  /// Dataset to follow; "" subscribes to every live dataset.
  std::string dataset;
  std::uint32_t initial_credits = 0;

  void encode(WireWriter& w) const;
  static SubscribeMsg decode(WireReader& r);
};

struct SubscribeOkMsg {
  /// initial_credits clamped to the server's credit_max.
  std::uint32_t granted_credits = 0;

  void encode(WireWriter& w) const;
  static SubscribeOkMsg decode(WireReader& r);
};

struct CreditMsg {
  std::uint32_t credits = 0;

  void encode(WireWriter& w) const;
  static CreditMsg decode(WireReader& r);
};

/// Stream event: one applied batch's cover delta. request_id carries the
/// subscription id it belongs to.
struct CoverUpdateMsg {
  std::string dataset;
  std::uint64_t batch_id = 0;
  std::vector<std::string> added;
  std::vector<std::string> removed;
  /// Credits the subscription has left after this event; the client should
  /// top up with kCredit before it reaches zero.
  std::uint32_t credits_left = 0;

  void encode(WireWriter& w) const;
  static CoverUpdateMsg decode(WireReader& r);
};

struct StreamEndMsg {
  StreamEndReason reason = StreamEndReason::kUnsubscribed;
  std::string detail;

  void encode(WireWriter& w) const;
  static StreamEndMsg decode(WireReader& r);
};

struct HeartbeatMsg {
  std::uint64_t server_time_us = 0;

  void encode(WireWriter& w) const;
  static HeartbeatMsg decode(WireReader& r);
};

/// The trace context a client stamps on a request. Carried by the
/// kTracedRequest wrapper, whose payload is
///
///   u64 trace_id | u64 span_id | u8 inner_type | inner payload bytes
///
/// and whose request id is shared with the wrapped request. The wrapper adds
/// exactly 17 bytes per request and leaves every inner schema untouched.
struct TraceContext {
  /// The client's trace id for this causal tree; 0 = untraced.
  std::uint64_t trace_id = 0;
  /// The client-side span covering the request round trip.
  std::uint64_t span_id = 0;
};

/// Wraps an already-encoded request payload in a kTracedRequest frame.
std::vector<std::uint8_t> EncodeTracedFrame(
    MsgType inner_type, std::uint64_t request_id,
    const std::vector<std::uint8_t>& inner_payload, const TraceContext& ctx);

/// Reads the trace context and inner type from a kTracedRequest payload.
/// The reader is left positioned at the inner payload's first byte; the
/// caller slices the remaining bytes as the wrapped request's payload.
/// Throws WireError unless the inner type is a request (RequestTypeName is
/// non-null): a wrapped hello, control frame, reply or envelope is a
/// protocol error.
TraceContext DecodeTracedHeader(WireReader& r, MsgType* inner_type);

/// Per-request cost ledger, sent with the request's id
/// immediately after a *successful* result frame (never after kError), so a
/// blocking client can read it deterministically. Mirrors obs CostLedger.
struct CostTrailerMsg {
  std::uint64_t cpu_ns = 0;           // thread CPU time inside the request
  std::uint64_t validations = 0;      // FD validations performed
  std::uint64_t partitions_built = 0; // partition intersections + builds
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t bytes_streamed = 0;   // response bytes for this request
  double queue_seconds = 0;           // admission -> execution start
  double run_seconds = 0;             // execution wall time

  void encode(WireWriter& w) const;
  static CostTrailerMsg decode(WireReader& r);
};

/// Convenience: encodes `msg` and wraps it into a complete frame.
template <typename Msg>
std::vector<std::uint8_t> EncodeMsgFrame(MsgType type, std::uint64_t request_id,
                                         const Msg& msg) {
  WireWriter w;
  msg.encode(w);
  return EncodeFrame(type, request_id, w.bytes());
}

/// A frame with an empty payload (kPing, kPong, kUnsubscribe, kGoodbye).
inline std::vector<std::uint8_t> EncodeEmptyFrame(MsgType type,
                                                  std::uint64_t request_id) {
  return EncodeFrame(type, request_id, {});
}

}  // namespace dhyfd::net

#endif  // DHYFD_NET_MESSAGES_H_
