#include "net/messages.h"

namespace dhyfd::net {

namespace {

/// Guards a decoded element count against the bytes actually present:
/// every element needs at least `min_bytes` more payload, so a count that
/// could not possibly fit is rejected before any allocation happens.
void CheckCount(const WireReader& r, std::uint32_t count,
                std::size_t min_bytes) {
  if (std::uint64_t{count} * min_bytes > r.remaining()) {
    throw WireError("element count " + std::to_string(count) +
                    " cannot fit in remaining payload " +
                    std::to_string(r.remaining()));
  }
}

void EncodeRankedFds(WireWriter& w, const std::vector<RankedFdMsg>& fds) {
  w.u32(static_cast<std::uint32_t>(fds.size()));
  for (const RankedFdMsg& f : fds) {
    w.str(f.fd);
    w.f64(f.redundancy);
  }
}

std::vector<RankedFdMsg> DecodeRankedFds(WireReader& r) {
  std::uint32_t n = r.u32();
  CheckCount(r, n, 12);  // 4-byte string length + 8-byte redundancy
  std::vector<RankedFdMsg> fds;
  fds.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    RankedFdMsg f;
    f.fd = r.str();
    f.redundancy = r.f64();
    fds.push_back(std::move(f));
  }
  return fds;
}

}  // namespace

void HelloMsg::encode(WireWriter& w) const {
  w.u32(protocol_version);
  w.str(client_name);
}

HelloMsg HelloMsg::decode(WireReader& r) {
  HelloMsg m;
  m.protocol_version = r.u32();
  m.client_name = r.str();
  r.expect_done();
  return m;
}

void HelloOkMsg::encode(WireWriter& w) const {
  w.u32(protocol_version);
  w.u32(max_inflight);
  w.u32(credit_max);
  w.f64(heartbeat_seconds);
}

HelloOkMsg HelloOkMsg::decode(WireReader& r) {
  HelloOkMsg m;
  m.protocol_version = r.u32();
  m.max_inflight = r.u32();
  m.credit_max = r.u32();
  m.heartbeat_seconds = r.f64();
  r.expect_done();
  return m;
}

void ErrorMsg::encode(WireWriter& w) const {
  w.u16(static_cast<std::uint16_t>(code));
  w.str(message);
}

ErrorMsg ErrorMsg::decode(WireReader& r) {
  ErrorMsg m;
  m.code = static_cast<ErrCode>(r.u16());
  m.message = r.str();
  r.expect_done();
  return m;
}

void RegisterDatasetMsg::encode(WireWriter& w) const {
  w.str(name);
  w.str(csv_text);
  w.u8(live ? 1 : 0);
  w.u8(semantics);
}

RegisterDatasetMsg RegisterDatasetMsg::decode(WireReader& r) {
  RegisterDatasetMsg m;
  m.name = r.str();
  m.csv_text = r.str();
  m.live = r.u8() != 0;
  m.semantics = r.u8();
  r.expect_done();
  return m;
}

void RegisterOkMsg::encode(WireWriter& w) const {
  w.u32(rows);
  w.u32(cols);
}

RegisterOkMsg RegisterOkMsg::decode(WireReader& r) {
  RegisterOkMsg m;
  m.rows = r.u32();
  m.cols = r.u32();
  r.expect_done();
  return m;
}

void SubmitDiscoveryMsg::encode(WireWriter& w) const {
  w.str(dataset);
  w.str(algorithm);
  w.u8(semantics);
  w.u32(static_cast<std::uint32_t>(priority));
  w.u32(deadline_ms);
  w.u32(top_k);
  w.u32(parallelism);
}

SubmitDiscoveryMsg SubmitDiscoveryMsg::decode(WireReader& r) {
  SubmitDiscoveryMsg m;
  m.dataset = r.str();
  m.algorithm = r.str();
  m.semantics = r.u8();
  m.priority = static_cast<std::int32_t>(r.u32());
  m.deadline_ms = r.u32();
  m.top_k = r.u32();
  m.parallelism = r.u32();
  r.expect_done();
  return m;
}

void DiscoveryResultMsg::encode(WireWriter& w) const {
  w.str(state);
  w.u32(cover_size);
  w.u32(canonical_size);
  w.f64(queue_seconds);
  w.f64(run_seconds);
  EncodeRankedFds(w, top);
}

DiscoveryResultMsg DiscoveryResultMsg::decode(WireReader& r) {
  DiscoveryResultMsg m;
  m.state = r.str();
  m.cover_size = r.u32();
  m.canonical_size = r.u32();
  m.queue_seconds = r.f64();
  m.run_seconds = r.f64();
  m.top = DecodeRankedFds(r);
  r.expect_done();
  return m;
}

void SubmitQueryMsg::encode(WireWriter& w) const {
  w.str(dataset);
  w.u8(semantics);
  w.u32(static_cast<std::uint32_t>(priority));
  w.u32(deadline_ms);
  w.f64(epsilon);
  w.u32(max_lhs);
  w.u32(top_k);
  w.u8(ranking_mode);
  w.u32(static_cast<std::uint32_t>(include_columns.size()));
  for (std::uint8_t c : include_columns) w.u8(c);
  w.u32(static_cast<std::uint32_t>(exclude_columns.size()));
  for (std::uint8_t c : exclude_columns) w.u8(c);
  w.u32(parallelism);
}

SubmitQueryMsg SubmitQueryMsg::decode(WireReader& r) {
  SubmitQueryMsg m;
  m.dataset = r.str();
  m.semantics = r.u8();
  m.priority = static_cast<std::int32_t>(r.u32());
  m.deadline_ms = r.u32();
  m.epsilon = r.f64();
  m.max_lhs = r.u32();
  m.top_k = r.u32();
  m.ranking_mode = r.u8();
  std::uint32_t ni = r.u32();
  CheckCount(r, ni, 1);
  m.include_columns.reserve(ni);
  for (std::uint32_t i = 0; i < ni; ++i) m.include_columns.push_back(r.u8());
  std::uint32_t ne = r.u32();
  CheckCount(r, ne, 1);
  m.exclude_columns.reserve(ne);
  for (std::uint32_t i = 0; i < ne; ++i) m.exclude_columns.push_back(r.u8());
  m.parallelism = r.u32();
  r.expect_done();
  return m;
}

void QueryResultMsg::encode(WireWriter& w) const {
  w.str(state);
  w.u32(total);
  w.u8(early_terminated ? 1 : 0);
  w.u8(timed_out ? 1 : 0);
  w.u64(validations);
  w.u64(pruned_epsilon);
  w.u64(pruned_arity);
  w.u64(pruned_bound);
  w.f64(queue_seconds);
  w.f64(run_seconds);
  EncodeRankedFds(w, fds);
}

QueryResultMsg QueryResultMsg::decode(WireReader& r) {
  QueryResultMsg m;
  m.state = r.str();
  m.total = r.u32();
  m.early_terminated = r.u8() != 0;
  m.timed_out = r.u8() != 0;
  m.validations = r.u64();
  m.pruned_epsilon = r.u64();
  m.pruned_arity = r.u64();
  m.pruned_bound = r.u64();
  m.queue_seconds = r.f64();
  m.run_seconds = r.f64();
  m.fds = DecodeRankedFds(r);
  r.expect_done();
  return m;
}

void QueryCoverMsg::encode(WireWriter& w) const {
  w.str(dataset);
  w.u32(top_k);
}

QueryCoverMsg QueryCoverMsg::decode(WireReader& r) {
  QueryCoverMsg m;
  m.dataset = r.str();
  m.top_k = r.u32();
  r.expect_done();
  return m;
}

void CoverResultMsg::encode(WireWriter& w) const {
  w.u32(total);
  EncodeRankedFds(w, top);
}

CoverResultMsg CoverResultMsg::decode(WireReader& r) {
  CoverResultMsg m;
  m.total = r.u32();
  m.top = DecodeRankedFds(r);
  r.expect_done();
  return m;
}

void ApplyUpdateMsg::encode(WireWriter& w) const {
  w.str(dataset);
  w.u32(static_cast<std::uint32_t>(inserts.size()));
  for (const std::vector<std::string>& row : inserts) {
    w.u32(static_cast<std::uint32_t>(row.size()));
    for (const std::string& cell : row) w.str(cell);
  }
  w.u32(static_cast<std::uint32_t>(deletes.size()));
  for (std::int64_t id : deletes) w.i64(id);
}

ApplyUpdateMsg ApplyUpdateMsg::decode(WireReader& r) {
  ApplyUpdateMsg m;
  m.dataset = r.str();
  std::uint32_t rows = r.u32();
  CheckCount(r, rows, 4);
  m.inserts.reserve(rows);
  for (std::uint32_t i = 0; i < rows; ++i) {
    std::uint32_t cells = r.u32();
    CheckCount(r, cells, 4);
    std::vector<std::string> row;
    row.reserve(cells);
    for (std::uint32_t c = 0; c < cells; ++c) row.push_back(r.str());
    m.inserts.push_back(std::move(row));
  }
  std::uint32_t dels = r.u32();
  CheckCount(r, dels, 8);
  m.deletes.reserve(dels);
  for (std::uint32_t i = 0; i < dels; ++i) m.deletes.push_back(r.i64());
  r.expect_done();
  return m;
}

void UpdateOkMsg::encode(WireWriter& w) const {
  w.u32(fds_added);
  w.u32(fds_removed);
  w.u8(rebuilt ? 1 : 0);
  w.f64(seconds);
}

UpdateOkMsg UpdateOkMsg::decode(WireReader& r) {
  UpdateOkMsg m;
  m.fds_added = r.u32();
  m.fds_removed = r.u32();
  m.rebuilt = r.u8() != 0;
  m.seconds = r.f64();
  r.expect_done();
  return m;
}

void SubscribeMsg::encode(WireWriter& w) const {
  w.str(dataset);
  w.u32(initial_credits);
}

SubscribeMsg SubscribeMsg::decode(WireReader& r) {
  SubscribeMsg m;
  m.dataset = r.str();
  m.initial_credits = r.u32();
  r.expect_done();
  return m;
}

void SubscribeOkMsg::encode(WireWriter& w) const { w.u32(granted_credits); }

SubscribeOkMsg SubscribeOkMsg::decode(WireReader& r) {
  SubscribeOkMsg m;
  m.granted_credits = r.u32();
  r.expect_done();
  return m;
}

void CreditMsg::encode(WireWriter& w) const { w.u32(credits); }

CreditMsg CreditMsg::decode(WireReader& r) {
  CreditMsg m;
  m.credits = r.u32();
  r.expect_done();
  return m;
}

void CoverUpdateMsg::encode(WireWriter& w) const {
  w.str(dataset);
  w.u64(batch_id);
  w.u32(static_cast<std::uint32_t>(added.size()));
  for (const std::string& fd : added) w.str(fd);
  w.u32(static_cast<std::uint32_t>(removed.size()));
  for (const std::string& fd : removed) w.str(fd);
  w.u32(credits_left);
}

CoverUpdateMsg CoverUpdateMsg::decode(WireReader& r) {
  CoverUpdateMsg m;
  m.dataset = r.str();
  m.batch_id = r.u64();
  std::uint32_t na = r.u32();
  CheckCount(r, na, 4);
  m.added.reserve(na);
  for (std::uint32_t i = 0; i < na; ++i) m.added.push_back(r.str());
  std::uint32_t nr = r.u32();
  CheckCount(r, nr, 4);
  m.removed.reserve(nr);
  for (std::uint32_t i = 0; i < nr; ++i) m.removed.push_back(r.str());
  m.credits_left = r.u32();
  r.expect_done();
  return m;
}

void StreamEndMsg::encode(WireWriter& w) const {
  w.u16(static_cast<std::uint16_t>(reason));
  w.str(detail);
}

StreamEndMsg StreamEndMsg::decode(WireReader& r) {
  StreamEndMsg m;
  m.reason = static_cast<StreamEndReason>(r.u16());
  m.detail = r.str();
  r.expect_done();
  return m;
}

void HeartbeatMsg::encode(WireWriter& w) const { w.u64(server_time_us); }

HeartbeatMsg HeartbeatMsg::decode(WireReader& r) {
  HeartbeatMsg m;
  m.server_time_us = r.u64();
  r.expect_done();
  return m;
}

std::vector<std::uint8_t> EncodeTracedFrame(
    MsgType inner_type, std::uint64_t request_id,
    const std::vector<std::uint8_t>& inner_payload, const TraceContext& ctx) {
  WireWriter w;
  w.u64(ctx.trace_id);
  w.u64(ctx.span_id);
  w.u8(static_cast<std::uint8_t>(inner_type));
  std::vector<std::uint8_t> payload = w.take();
  payload.insert(payload.end(), inner_payload.begin(), inner_payload.end());
  return EncodeFrame(MsgType::kTracedRequest, request_id, payload);
}

TraceContext DecodeTracedHeader(WireReader& r, MsgType* inner_type) {
  TraceContext ctx;
  ctx.trace_id = r.u64();
  ctx.span_id = r.u64();
  std::uint8_t t = r.u8();
  if (!IsKnownMsgType(t) || RequestTypeName(static_cast<MsgType>(t)) == nullptr) {
    throw WireError("traced request wraps non-request type " +
                    std::to_string(int{t}));
  }
  *inner_type = static_cast<MsgType>(t);
  // Deliberately no expect_done(): the rest of the payload is the wrapped
  // request's payload, sliced off by the caller.
  return ctx;
}

void CostTrailerMsg::encode(WireWriter& w) const {
  w.u64(cpu_ns);
  w.u64(validations);
  w.u64(partitions_built);
  w.u64(cache_hits);
  w.u64(cache_misses);
  w.u64(bytes_streamed);
  w.f64(queue_seconds);
  w.f64(run_seconds);
}

CostTrailerMsg CostTrailerMsg::decode(WireReader& r) {
  CostTrailerMsg m;
  m.cpu_ns = r.u64();
  m.validations = r.u64();
  m.partitions_built = r.u64();
  m.cache_hits = r.u64();
  m.cache_misses = r.u64();
  m.bytes_streamed = r.u64();
  m.queue_seconds = r.f64();
  m.run_seconds = r.f64();
  r.expect_done();
  return m;
}

}  // namespace dhyfd::net
