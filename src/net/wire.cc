#include "net/wire.h"

namespace dhyfd::net {

bool IsKnownMsgType(std::uint8_t t) {
  if (t >= static_cast<std::uint8_t>(MsgType::kHello) &&
      t <= static_cast<std::uint8_t>(MsgType::kTracedRequest)) {
    return true;
  }
  return t >= static_cast<std::uint8_t>(MsgType::kHelloOk) &&
         t <= static_cast<std::uint8_t>(MsgType::kCostTrailer);
}

const char* RequestTypeName(MsgType type) {
  switch (type) {
    case MsgType::kSubmitDiscovery: return "submit_discovery";
    case MsgType::kSubmitQuery: return "submit_query";
    case MsgType::kRegisterDataset: return "register_dataset";
    case MsgType::kQueryCover: return "query_cover";
    case MsgType::kApplyUpdate: return "apply_update";
    case MsgType::kSubscribe: return "subscribe";
    case MsgType::kHello:
    case MsgType::kCredit:
    case MsgType::kUnsubscribe:
    case MsgType::kPing:
    case MsgType::kGoodbye:
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
      return nullptr;
  }
  return nullptr;
}

const char* ErrCodeName(ErrCode code) {
  switch (code) {
    case ErrCode::kBadRequest: return "bad_request";
    case ErrCode::kUnsupportedVersion: return "unsupported_version";
    case ErrCode::kUnknownDataset: return "unknown_dataset";
    case ErrCode::kQuotaExceeded: return "quota_exceeded";
    case ErrCode::kTooManyInFlight: return "too_many_in_flight";
    case ErrCode::kServerBusy: return "server_busy";
    case ErrCode::kShuttingDown: return "shutting_down";
    case ErrCode::kInternal: return "internal";
  }
  return "unknown";
}

const char* StreamEndReasonName(StreamEndReason reason) {
  switch (reason) {
    case StreamEndReason::kUnsubscribed: return "unsubscribed";
    case StreamEndReason::kSlowConsumer: return "slow_consumer";
    case StreamEndReason::kServerShutdown: return "server_shutdown";
    case StreamEndReason::kDatasetDropped: return "dataset_dropped";
  }
  return "unknown";
}

std::vector<std::uint8_t> EncodeFrame(MsgType type, std::uint64_t request_id,
                                      const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kLengthPrefixBytes + kFrameHeaderBytes + payload.size());
  std::uint32_t len =
      static_cast<std::uint32_t>(kFrameHeaderBytes + payload.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  out.push_back(static_cast<std::uint8_t>(type));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(request_id >> (8 * i)));
  }
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  // Reclaim consumed prefix before growing; keeps the buffer proportional
  // to the unparsed tail, not to connection lifetime.
  if (consumed_ > 0 && consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096 && consumed_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

bool FrameDecoder::next(Frame* out) {
  if (poisoned_) throw WireError("decoder poisoned by earlier protocol error");
  std::size_t avail = buf_.size() - consumed_;
  if (avail < kLengthPrefixBytes) return false;
  const std::uint8_t* p = buf_.data() + consumed_;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= std::uint32_t{p[i]} << (8 * i);
  if (len < kFrameHeaderBytes) {
    poisoned_ = true;
    throw WireError("frame length " + std::to_string(len) +
                    " below header size");
  }
  if (len > max_frame_len_) {
    poisoned_ = true;
    throw WireError("frame length " + std::to_string(len) +
                    " exceeds maximum " + std::to_string(max_frame_len_));
  }
  // The type byte is validated as soon as it arrives, before buffering the
  // (possibly large) payload a garbage frame claims to carry.
  if (avail >= kLengthPrefixBytes + 1 && !IsKnownMsgType(p[4])) {
    poisoned_ = true;
    throw WireError("unknown message type " + std::to_string(int{p[4]}));
  }
  if (avail < kLengthPrefixBytes + len) return false;
  out->type = static_cast<MsgType>(p[4]);
  out->request_id = 0;
  for (int i = 0; i < 8; ++i) {
    out->request_id |= std::uint64_t{p[5 + i]} << (8 * i);
  }
  out->payload.assign(p + kLengthPrefixBytes + kFrameHeaderBytes,
                      p + kLengthPrefixBytes + len);
  consumed_ += kLengthPrefixBytes + len;
  return true;
}

}  // namespace dhyfd::net
