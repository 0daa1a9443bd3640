#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "net/messages.h"
#include "util/random.h"

namespace dhyfd::net {
namespace {

std::vector<std::uint8_t> Bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int b : v) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

TEST(WireWriterReaderTest, PrimitivesRoundTrip) {
  WireWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.25);
  w.str("hello");
  w.str("");

  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(WireWriterReaderTest, IntegersAreLittleEndian) {
  WireWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.bytes().size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(WireReaderTest, TruncatedReadsThrow) {
  std::vector<std::uint8_t> two = Bytes({1, 2});
  WireReader r(two);
  EXPECT_EQ(r.u16(), 0x0201);
  EXPECT_THROW(r.u8(), WireError);

  WireReader r2(two);
  EXPECT_THROW(r2.u32(), WireError);
}

TEST(WireReaderTest, StringLengthBeyondPayloadThrows) {
  WireWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8('x');
  WireReader r(w.bytes());
  EXPECT_THROW(r.str(), WireError);
}

TEST(WireReaderTest, TrailingBytesRejected) {
  WireWriter w;
  w.u8(7);
  w.u8(8);
  WireReader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.expect_done(), WireError);
}

TEST(FrameTest, EncodeDecodeRoundTrip) {
  std::vector<std::uint8_t> payload = Bytes({1, 2, 3, 4, 5});
  std::vector<std::uint8_t> wire =
      EncodeFrame(MsgType::kSubmitDiscovery, 0xfeedfacecafef00dull, payload);
  ASSERT_EQ(wire.size(), kLengthPrefixBytes + kFrameHeaderBytes + payload.size());

  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame f;
  ASSERT_TRUE(dec.next(&f));
  EXPECT_EQ(f.type, MsgType::kSubmitDiscovery);
  EXPECT_EQ(f.request_id, 0xfeedfacecafef00dull);
  EXPECT_EQ(f.payload, payload);
  EXPECT_FALSE(dec.next(&f));
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FrameDecoderTest, ReassemblesByteAtATime) {
  std::vector<std::uint8_t> wire =
      EncodeFrame(MsgType::kPing, 42, Bytes({9, 9, 9}));
  FrameDecoder dec;
  Frame f;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    dec.feed(&wire[i], 1);
    EXPECT_FALSE(dec.next(&f)) << "frame complete too early at byte " << i;
  }
  dec.feed(&wire[wire.size() - 1], 1);
  ASSERT_TRUE(dec.next(&f));
  EXPECT_EQ(f.request_id, 42u);
}

TEST(FrameDecoderTest, ManyFramesInOneFeed) {
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> one =
        EncodeFrame(MsgType::kCredit, static_cast<std::uint64_t>(i),
                    Bytes({i & 0xff}));
    wire.insert(wire.end(), one.begin(), one.end());
  }
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame f;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(dec.next(&f));
    EXPECT_EQ(f.request_id, static_cast<std::uint64_t>(i));
  }
  EXPECT_FALSE(dec.next(&f));
}

TEST(FrameDecoderTest, LengthBelowHeaderSizeThrows) {
  // len = 3 < 9: cannot even hold type + request id.
  std::vector<std::uint8_t> wire = Bytes({3, 0, 0, 0, 1, 0, 0});
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame f;
  EXPECT_THROW(dec.next(&f), WireError);
}

TEST(FrameDecoderTest, OversizedLengthPrefixThrowsBeforeBuffering) {
  // A hostile 4 GiB length prefix must be rejected from the 4 prefix bytes
  // alone — no waiting for (or allocating) the claimed payload.
  std::vector<std::uint8_t> wire = Bytes({0xff, 0xff, 0xff, 0xff});
  FrameDecoder dec(1 << 20);
  dec.feed(wire.data(), wire.size());
  Frame f;
  EXPECT_THROW(dec.next(&f), WireError);
  EXPECT_LT(dec.buffered_bytes(), std::size_t{16});
}

TEST(FrameDecoderTest, UnknownTypeByteThrowsEarly) {
  // Valid length, type byte 200 (undefined): rejected as soon as the type
  // byte is visible, before the payload arrives.
  std::vector<std::uint8_t> wire = Bytes({100, 0, 0, 0, 200});
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  Frame f;
  EXPECT_THROW(dec.next(&f), WireError);
}

TEST(FrameDecoderTest, PoisonedAfterError) {
  std::vector<std::uint8_t> bad = Bytes({1, 0, 0, 0, 1, 2, 3});
  FrameDecoder dec;
  dec.feed(bad.data(), bad.size());
  Frame f;
  EXPECT_THROW(dec.next(&f), WireError);
  // Feeding a perfectly valid frame afterwards must not resurrect it.
  std::vector<std::uint8_t> good = EncodeFrame(MsgType::kPing, 1, {});
  dec.feed(good.data(), good.size());
  EXPECT_THROW(dec.next(&f), WireError);
}

TEST(FrameDecoderTest, GarbageBytesNeverCrash) {
  // Fuzz-ish sweep: random byte soup must either parse (when the prefix
  // happens to be consistent) or throw WireError — never UB. Run under
  // ASan in ci.sh.
  Random rng(20260808);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> soup(rng.next_below(300));
    for (std::uint8_t& b : soup) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    FrameDecoder dec(1 << 16);
    Frame f;
    try {
      dec.feed(soup.data(), soup.size());
      while (dec.next(&f)) {
      }
    } catch (const WireError&) {
      // expected for most soups
    }
  }
}

TEST(FrameDecoderTest, TruncatedThenCorruptedFrameThrows) {
  // A legal frame whose tail is replaced by another frame's head: the
  // decoder returns the first frame and then chokes on the splice point
  // (or waits for more bytes) without misattributing payload bytes.
  std::vector<std::uint8_t> a =
      EncodeFrame(MsgType::kHello, 7, Bytes({1, 2, 3, 4, 5, 6, 7, 8}));
  FrameDecoder dec;
  // Feed all of frame A but cut the last 4 payload bytes and splice in a
  // bogus oversized prefix; those 4 bytes complete A's length, so A's
  // payload is now wrong but structurally complete.
  std::vector<std::uint8_t> spliced(a.begin(), a.end() - 4);
  std::vector<std::uint8_t> bogus = Bytes({0xff, 0xff, 0xff, 0x7f});
  spliced.insert(spliced.end(), bogus.begin(), bogus.end());
  dec.feed(spliced.data(), spliced.size());
  Frame f;
  ASSERT_TRUE(dec.next(&f));  // structurally complete (corrupt payload)
  EXPECT_EQ(f.payload.size(), 8u);
  EXPECT_FALSE(dec.next(&f));  // bogus prefix: 4 bytes buffered, no frame yet
}

// ---------------------------------------------------------------- messages

TEST(MessagesTest, SubmitDiscoveryRoundTrip) {
  SubmitDiscoveryMsg msg;
  msg.dataset = "abalone";
  msg.algorithm = "tane";
  msg.semantics = 1;
  msg.priority = -3;
  msg.deadline_ms = 2500;
  msg.top_k = 7;
  WireWriter w;
  msg.encode(w);
  WireReader r(w.bytes());
  SubmitDiscoveryMsg out = SubmitDiscoveryMsg::decode(r);
  EXPECT_EQ(out.dataset, "abalone");
  EXPECT_EQ(out.algorithm, "tane");
  EXPECT_EQ(out.semantics, 1);
  EXPECT_EQ(out.priority, -3);
  EXPECT_EQ(out.deadline_ms, 2500u);
  EXPECT_EQ(out.top_k, 7u);
}

TEST(MessagesTest, DiscoveryResultRoundTrip) {
  DiscoveryResultMsg msg;
  msg.state = "done";
  msg.cover_size = 12;
  msg.canonical_size = 9;
  msg.queue_seconds = 0.5;
  msg.run_seconds = 1.25;
  msg.top = {{"{1,2} -> {3}", 100.0}, {"{4} -> {5}", 7.0}};
  WireWriter w;
  msg.encode(w);
  WireReader r(w.bytes());
  DiscoveryResultMsg out = DiscoveryResultMsg::decode(r);
  EXPECT_EQ(out.state, "done");
  ASSERT_EQ(out.top.size(), 2u);
  EXPECT_EQ(out.top[0].fd, "{1,2} -> {3}");
  EXPECT_EQ(out.top[1].redundancy, 7.0);
}

TEST(MessagesTest, ApplyUpdateRoundTrip) {
  ApplyUpdateMsg msg;
  msg.dataset = "d";
  msg.inserts = {{"a", "b"}, {"", "x,y"}};
  msg.deletes = {3, -1, 99};
  WireWriter w;
  msg.encode(w);
  WireReader r(w.bytes());
  ApplyUpdateMsg out = ApplyUpdateMsg::decode(r);
  EXPECT_EQ(out.inserts, msg.inserts);
  EXPECT_EQ(out.deletes, msg.deletes);
}

TEST(MessagesTest, HostileElementCountRejectedWithoutAllocation) {
  // A CoverResultMsg claiming 2^31 ranked FDs in a 12-byte payload must be
  // rejected by the count guard, not by attempting the reserve.
  WireWriter w;
  w.u32(5);                 // total
  w.u32(0x80000000u);       // claimed element count
  w.u32(0);                 // a few junk bytes
  WireReader r(w.bytes());
  EXPECT_THROW(CoverResultMsg::decode(r), WireError);
}

TEST(MessagesTest, TruncatedPayloadThrowsNotCrashes) {
  // Encode each message, then decode every strict prefix: all must throw
  // WireError (truncation) or succeed only at full length.
  SubmitDiscoveryMsg msg;
  msg.dataset = "dataset-name";
  msg.top_k = 3;
  msg.parallelism = 4;  // the last field: its bytes are cut too
  WireWriter w;
  msg.encode(w);
  const std::vector<std::uint8_t>& full = w.bytes();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    WireReader r(full.data(), cut);
    EXPECT_THROW(
        {
          SubmitDiscoveryMsg got = SubmitDiscoveryMsg::decode(r);
          (void)got;
        },
        WireError)
        << "prefix of " << cut << " bytes decoded successfully";
  }
}

TEST(MessagesTest, SubmitQueryRoundTrip) {
  SubmitQueryMsg msg;
  msg.dataset = "abalone";
  msg.semantics = 1;
  msg.priority = 2;
  msg.deadline_ms = 1500;
  msg.epsilon = 0.05;
  msg.max_lhs = 3;
  msg.top_k = 10;
  msg.ranking_mode = 1;
  msg.include_columns = {0, 2, 5};
  msg.exclude_columns = {2};
  WireWriter w;
  msg.encode(w);
  WireReader r(w.bytes());
  SubmitQueryMsg out = SubmitQueryMsg::decode(r);
  EXPECT_EQ(out.dataset, "abalone");
  EXPECT_EQ(out.epsilon, 0.05);
  EXPECT_EQ(out.max_lhs, 3u);
  EXPECT_EQ(out.top_k, 10u);
  EXPECT_EQ(out.ranking_mode, 1);
  EXPECT_EQ(out.include_columns, (std::vector<std::uint8_t>{0, 2, 5}));
  EXPECT_EQ(out.exclude_columns, (std::vector<std::uint8_t>{2}));
}

TEST(MessagesTest, SubmitParallelismRoundTripsAtV4) {
  SubmitDiscoveryMsg msg;
  msg.dataset = "d";
  msg.parallelism = 6;
  WireWriter w;
  msg.encode(w);
  WireReader r(w.bytes());
  EXPECT_EQ(SubmitDiscoveryMsg::decode(r).parallelism, 6u);

  SubmitQueryMsg qmsg;
  qmsg.dataset = "d";
  qmsg.parallelism = 3;
  WireWriter qw;
  qmsg.encode(qw);
  WireReader qr(qw.bytes());
  EXPECT_EQ(SubmitQueryMsg::decode(qr).parallelism, 3u);
}

TEST(MessagesTest, QueryResultRoundTrip) {
  QueryResultMsg msg;
  msg.state = "done";
  msg.total = 4;
  msg.early_terminated = true;
  msg.timed_out = false;
  msg.validations = 123;
  msg.pruned_epsilon = 7;
  msg.pruned_arity = 9;
  msg.pruned_bound = 55;
  msg.queue_seconds = 0.125;
  msg.run_seconds = 2.5;
  msg.fds = {{"{1} -> {2}", 40.0}, {"{0,3} -> {1}", 12.0}};
  WireWriter w;
  msg.encode(w);
  WireReader r(w.bytes());
  QueryResultMsg out = QueryResultMsg::decode(r);
  EXPECT_EQ(out.state, "done");
  EXPECT_EQ(out.total, 4u);
  EXPECT_TRUE(out.early_terminated);
  EXPECT_FALSE(out.timed_out);
  EXPECT_EQ(out.validations, 123u);
  EXPECT_EQ(out.pruned_bound, 55u);
  ASSERT_EQ(out.fds.size(), 2u);
  EXPECT_EQ(out.fds[1].fd, "{0,3} -> {1}");
}

TEST(MessagesTest, TruncatedSubmitQueryThrowsAtEveryPrefix) {
  SubmitQueryMsg msg;
  msg.dataset = "dataset-name";
  msg.epsilon = 0.1;
  msg.top_k = 5;
  msg.include_columns = {0, 1, 2};
  msg.exclude_columns = {1};
  WireWriter w;
  msg.encode(w);
  const std::vector<std::uint8_t>& full = w.bytes();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    WireReader r(full.data(), cut);
    EXPECT_THROW(
        {
          SubmitQueryMsg got = SubmitQueryMsg::decode(r);
          (void)got;
        },
        WireError)
        << "prefix of " << cut << " bytes decoded successfully";
  }
  WireReader ok(full.data(), full.size());
  EXPECT_NO_THROW(SubmitQueryMsg::decode(ok));
}

TEST(MessagesTest, HostileQueryColumnCountRejectedWithoutAllocation) {
  // A column list claiming 2^31 entries in a tiny payload must trip the
  // count guard before any reserve happens.
  SubmitQueryMsg msg;
  msg.dataset = "d";
  WireWriter w;
  w.str(msg.dataset);
  w.u8(0);              // semantics
  w.u32(0);             // priority
  w.u32(0);             // deadline_ms
  w.f64(0);             // epsilon
  w.u32(0);             // max_lhs
  w.u32(0);             // top_k
  w.u8(0);              // ranking_mode
  w.u32(0x80000000u);   // hostile include count
  WireReader r(w.bytes());
  EXPECT_THROW(SubmitQueryMsg::decode(r), WireError);
}

TEST(MessagesTest, HostileEpsilonAndKStillDecode) {
  // Semantically absurd-but-well-framed values must DECODE fine; rejecting
  // them is the server's job (kBadRequest), so a hostile spec costs one
  // request, not the connection.
  SubmitQueryMsg msg;
  msg.dataset = "d";
  msg.epsilon = -42.0;
  msg.max_lhs = 0xffffffffu;
  msg.top_k = 0xffffffffu;
  msg.ranking_mode = 200;
  WireWriter w;
  msg.encode(w);
  WireReader r(w.bytes());
  SubmitQueryMsg out;
  EXPECT_NO_THROW(out = SubmitQueryMsg::decode(r));
  EXPECT_EQ(out.epsilon, -42.0);
  EXPECT_EQ(out.max_lhs, 0xffffffffu);
}

TEST(MessagesTest, QueryFrameTypesAreKnown) {
  EXPECT_TRUE(IsKnownMsgType(static_cast<std::uint8_t>(MsgType::kSubmitQuery)));
  EXPECT_TRUE(IsKnownMsgType(static_cast<std::uint8_t>(MsgType::kQueryResult)));
  // The trace envelope and the cost trailer are the range ends.
  EXPECT_TRUE(IsKnownMsgType(static_cast<std::uint8_t>(MsgType::kTracedRequest)));
  EXPECT_TRUE(IsKnownMsgType(static_cast<std::uint8_t>(MsgType::kCostTrailer)));
  // The hole between client and server ranges is still unknown.
  EXPECT_FALSE(IsKnownMsgType(13));
  EXPECT_FALSE(IsKnownMsgType(63));
  EXPECT_FALSE(IsKnownMsgType(77));
}

TEST(MessagesTest, RequestTypeNameLabelsExactlyTheRequests) {
  EXPECT_STREQ(RequestTypeName(MsgType::kSubmitDiscovery), "submit_discovery");
  EXPECT_STREQ(RequestTypeName(MsgType::kSubmitQuery), "submit_query");
  EXPECT_STREQ(RequestTypeName(MsgType::kRegisterDataset), "register_dataset");
  EXPECT_STREQ(RequestTypeName(MsgType::kQueryCover), "query_cover");
  EXPECT_STREQ(RequestTypeName(MsgType::kApplyUpdate), "apply_update");
  EXPECT_STREQ(RequestTypeName(MsgType::kSubscribe), "subscribe");
  int labelled = 0;
  for (int t = 0; t < 256; ++t) {
    if (!IsKnownMsgType(static_cast<std::uint8_t>(t))) continue;
    if (RequestTypeName(static_cast<MsgType>(t)) != nullptr) ++labelled;
  }
  EXPECT_EQ(labelled, 6);  // handshake, control, envelope, replies: nullptr
}

TEST(MessagesTest, TracedHeaderAcceptsOnlyRequests) {
  TraceContext ctx;
  ctx.trace_id = 5;
  for (int t = 0; t < 256; ++t) {
    if (!IsKnownMsgType(static_cast<std::uint8_t>(t))) continue;
    MsgType type = static_cast<MsgType>(t);
    std::vector<std::uint8_t> frame = EncodeTracedFrame(type, 1, {}, ctx);
    WireReader r(frame.data() + kLengthPrefixBytes + kFrameHeaderBytes,
                 frame.size() - kLengthPrefixBytes - kFrameHeaderBytes);
    MsgType inner;
    if (RequestTypeName(type) != nullptr) {
      EXPECT_EQ(DecodeTracedHeader(r, &inner).trace_id, 5u);
      EXPECT_EQ(inner, type);
    } else {
      EXPECT_THROW(DecodeTracedHeader(r, &inner), WireError) << t;
    }
  }
}

TEST(MessagesTest, ErrCodeAndReasonNamesCoverAllValues) {
  EXPECT_STREQ(ErrCodeName(ErrCode::kQuotaExceeded), "quota_exceeded");
  EXPECT_STREQ(ErrCodeName(ErrCode::kServerBusy), "server_busy");
  EXPECT_STREQ(StreamEndReasonName(StreamEndReason::kSlowConsumer),
               "slow_consumer");
}

}  // namespace
}  // namespace dhyfd::net
