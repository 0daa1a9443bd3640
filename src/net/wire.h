#ifndef DHYFD_NET_WIRE_H_
#define DHYFD_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace dhyfd::net {

/// The RPC wire format is deliberately minimal: a little-endian length
/// prefix, a one-byte message type, an eight-byte correlation id, and a
/// type-specific payload (see messages.h for the payload schemas and
/// DESIGN.md "Network service" for the framing rationale):
///
///   +----------+------+------------+---------------------+
///   | u32 len  | u8 t | u64 req_id | payload (len-9 B)   |
///   +----------+------+------------+---------------------+
///
/// `len` counts everything after itself (type + request id + payload), so a
/// frame occupies 4 + len bytes on the wire and the smallest legal frame has
/// len == 9. Anything malformed — len below the header size, len above the
/// configured maximum, an unknown type byte, or a payload whose fields read
/// past its end — is a protocol error: the peer's connection is dropped, it
/// is never "best-effort parsed".

/// Everything the client may send and everything the server may answer.
/// Values are wire-stable; add new ones at the end only.
enum class MsgType : std::uint8_t {
  // client -> server
  kHello = 1,            // version handshake; first frame on a connection
  kRegisterDataset = 2,  // upload a CSV table (optionally as a live dataset)
  kSubmitDiscovery = 3,  // run a profiling job; response carries the summary
  kQueryCover = 4,       // ranked cover of a live dataset (top-k)
  kApplyUpdate = 5,      // submit an UpdateBatch against a live dataset
  kSubscribe = 6,        // stream live cover deltas, credit-windowed
  kCredit = 7,           // grant credits to a subscription (the ACK)
  kUnsubscribe = 8,      // end a subscription
  kPing = 9,             // liveness probe; also resets the idle timer
  kGoodbye = 10,         // polite close: server flushes, then disconnects
  kSubmitQuery = 11,     // run a rank-driven discovery query
  kTracedRequest = 12,   // trace-context wrapper around one request

  // server -> client
  kHelloOk = 64,         // handshake reply: limits the client must respect
  kError = 65,           // request failed; code + message
  kRegisterOk = 66,
  kDiscoveryResult = 67,
  kCoverResult = 68,
  kUpdateOk = 69,
  kSubscribeOk = 70,
  kCoverUpdate = 71,     // stream event; request id = subscription id
  kStreamEnd = 72,       // subscription closed; reason code
  kHeartbeat = 73,       // periodic keepalive on streaming connections
  kPong = 74,
  kQueryResult = 75,     // answer to kSubmitQuery
  kCostTrailer = 76,     // per-request cost ledger after a success
};

/// True if `t` is a value the protocol defines (in either direction).
bool IsKnownMsgType(std::uint8_t t);

/// Stable label of a client request type ("submit_discovery", ...), used in
/// net.rpc.* metric names and /slowlog rows; nullptr for every type that is
/// not a request (handshake, control frames, replies, the trace envelope).
const char* RequestTypeName(MsgType type);

/// Error codes carried by kError frames.
enum class ErrCode : std::uint16_t {
  kBadRequest = 1,        // malformed or semantically invalid payload
  kUnsupportedVersion = 2,
  kUnknownDataset = 3,
  kQuotaExceeded = 4,     // per-client request rate quota exhausted
  kTooManyInFlight = 5,   // per-client in-flight window full
  kServerBusy = 6,        // scheduler queue full (admission backstop)
  kShuttingDown = 7,
  kInternal = 8,
};

const char* ErrCodeName(ErrCode code);

/// Reasons carried by kStreamEnd frames.
enum class StreamEndReason : std::uint16_t {
  kUnsubscribed = 1,
  kSlowConsumer = 2,    // credit window + event buffer both exhausted
  kServerShutdown = 3,
  kDatasetDropped = 4,
};

const char* StreamEndReasonName(StreamEndReason reason);

/// Protocol violation while decoding. The connection that produced the
/// bytes must be dropped; there is no recovery inside a corrupted stream.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

constexpr std::size_t kFrameHeaderBytes = 9;   // type + request id
constexpr std::size_t kLengthPrefixBytes = 4;
/// Default cap on `len`; covers a multi-MB CSV upload while bounding what a
/// hostile length prefix can make the server reserve.
constexpr std::uint32_t kDefaultMaxFrameLen = 16u << 20;

/// Appends little-endian primitives / length-prefixed strings to a byte
/// buffer. All multi-byte integers on the wire are little-endian.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v, 2); }
  void u32(std::uint32_t v) { append_le(v, 4); }
  void u64(std::uint64_t v) { append_le(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bits, little-endian.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// u32 byte count, then the bytes.
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void append_le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reads over one frame's payload. Every accessor throws
/// WireError instead of reading past the end, so a hostile payload can make
/// a request fail but never make the server touch memory it does not own.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(read_le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(read_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(read_le(4)); }
  std::uint64_t u64() { return read_le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    std::uint32_t n = u32();
    if (n > remaining()) {
      throw WireError("string length " + std::to_string(n) +
                      " exceeds remaining payload " + std::to_string(remaining()));
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  /// Throws unless the payload was consumed exactly — trailing garbage in a
  /// known message type is a protocol error too.
  void expect_done() const {
    if (!done()) {
      throw WireError("payload has " + std::to_string(remaining()) +
                      " trailing byte(s)");
    }
  }

 private:
  std::uint64_t read_le(int n) {
    if (static_cast<std::size_t>(n) > remaining()) {
      throw WireError("payload truncated: need " + std::to_string(n) +
                      " byte(s), have " + std::to_string(remaining()));
    }
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kPing;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

/// Serializes a complete frame (length prefix included).
std::vector<std::uint8_t> EncodeFrame(MsgType type, std::uint64_t request_id,
                                      const std::vector<std::uint8_t>& payload);

/// Incremental frame extractor for one connection: feed() raw bytes as they
/// arrive, next() pops complete frames. Malformed input (length prefix
/// below the header size or above `max_frame_len`, unknown type byte)
/// throws WireError from next(); the decoder is then poisoned and the
/// caller must drop the connection.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame_len = kDefaultMaxFrameLen)
      : max_frame_len_(max_frame_len) {}

  void feed(const std::uint8_t* data, std::size_t size);

  /// Extracts the next complete frame into *out; false if more bytes are
  /// needed. Throws WireError on malformed input.
  bool next(Frame* out);

  /// Bytes buffered but not yet returned as frames.
  std::size_t buffered_bytes() const { return buf_.size() - consumed_; }

 private:
  const std::uint32_t max_frame_len_;
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  // prefix of buf_ already handed out
  bool poisoned_ = false;
};

}  // namespace dhyfd::net

#endif  // DHYFD_NET_WIRE_H_
