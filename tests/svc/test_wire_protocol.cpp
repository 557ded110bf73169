// Wire-protocol conformance: golden byte vectors (the committed wire ABI),
// encode/decode round trips, decoder rejection of structural violations,
// and the server's malformed-frame contract — every malformed class gets
// one typed Error frame and the connection keeps working afterwards.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "svc/net/client.hpp"
#include "svc/net/server.hpp"
#include "svc/net/wire.hpp"
#include "net_test_util.hpp"

namespace {

using namespace swr;
using namespace swr::svc::net;
using namespace std::chrono_literals;

// ---- golden vectors -------------------------------------------------------
// These bytes ARE the protocol. A failure here means the wire ABI changed;
// that requires a version bump, not a vector update.

TEST(WireGolden, RequestPayload) {
  WireRequest req;
  req.request_id = 0x0102030405060708ull;
  req.tenant = "t1";
  req.query_name = "q";
  req.query = "ACGT";
  req.top_k = 5;
  req.min_score = 7;
  req.filter = 1;
  req.filter_threshold = 9;
  req.align = 1;
  req.max_hits = 3;
  req.deadline_ms = 250;

  const std::vector<std::uint8_t> expected = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // request_id
      0x02, 0x00, 0x00, 0x00, 0x74, 0x31,              // "t1"
      0x01, 0x00, 0x00, 0x00, 0x71,                    // "q"
      0x04, 0x00, 0x00, 0x00, 0x41, 0x43, 0x47, 0x54,  // "ACGT"
      0x05, 0x00, 0x00, 0x00,                          // top_k
      0x07, 0x00, 0x00, 0x00,                          // min_score
      0x01,                                            // filter
      0x09, 0x00, 0x00, 0x00,                          // filter_threshold
      0x01,                                            // align
      0x03, 0x00, 0x00, 0x00,                          // max_hits
      0xfa, 0x00, 0x00, 0x00,                          // deadline_ms
  };
  EXPECT_EQ(encode(req), expected);
  EXPECT_EQ(frame_checksum(expected.data(), expected.size()), 0x6c8fe8c6u);

  const auto back = decode_request(expected);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->request_id, req.request_id);
  EXPECT_EQ(back->tenant, "t1");
  EXPECT_EQ(back->query, "ACGT");
  EXPECT_EQ(back->deadline_ms, 250u);
}

TEST(WireGolden, CancelFrame) {
  const std::vector<std::uint8_t> frame = make_frame(FrameType::Cancel, encode(WireCancel{42}));
  const std::vector<std::uint8_t> expected = {
      'S',  'W',  'R',  'F',                           // magic
      0x01,                                            // version
      0x07,                                            // type = Cancel
      0x00, 0x00,                                      // reserved
      0x08, 0x00, 0x00, 0x00,                          // length
      0x84, 0x07, 0xb3, 0xc8,                          // checksum
      0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // request_id = 42
  };
  EXPECT_EQ(frame, expected);
}

TEST(WireGolden, ErrorPayload) {
  const std::vector<std::uint8_t> bytes = {
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // request_id
      0x07, 0x00,                                      // code = Shed
      0xdc, 0x05, 0x00, 0x00,                          // retry_after_ms = 1500
      0x04, 0x00, 0x00, 0x00, 's', 'l', 'o', 'w',      // message
  };
  EXPECT_EQ(frame_checksum(bytes.data(), bytes.size()), 0x7c7d850du);
  const auto err = decode_error(bytes);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::Shed);
  EXPECT_EQ(err->retry_after_ms, 1500u);
  EXPECT_EQ(err->message, "slow");
  EXPECT_EQ(encode(*err), bytes);
}

TEST(WireGolden, EmptyPayloadChecksum) {
  EXPECT_EQ(frame_checksum(nullptr, 0), 0x4fd0bfc1u);
}

// ---- round trips ----------------------------------------------------------

std::string random_text(std::mt19937_64& rng, std::size_t max_len) {
  std::uniform_int_distribution<std::size_t> len(0, max_len);
  std::uniform_int_distribution<int> ch(0, 255);
  std::string s(len(rng), '\0');
  for (char& c : s) c = static_cast<char>(ch(rng));
  return s;
}

TEST(WireRoundTrip, Request) {
  std::mt19937_64 rng(101);
  for (int k = 0; k < 200; ++k) {
    WireRequest m;
    m.request_id = rng();
    m.tenant = random_text(rng, 12);
    m.query_name = random_text(rng, 30);
    m.query = random_text(rng, 200);
    m.top_k = static_cast<std::uint32_t>(rng());
    m.min_score = static_cast<std::int32_t>(rng());
    m.filter = static_cast<std::uint8_t>(rng() % 2);
    m.filter_threshold = static_cast<std::int32_t>(rng());
    m.align = static_cast<std::uint8_t>(rng() % 2);
    m.max_hits = static_cast<std::uint32_t>(rng());
    m.deadline_ms = static_cast<std::uint32_t>(rng());
    const auto back = decode_request(encode(m));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->request_id, m.request_id);
    EXPECT_EQ(back->tenant, m.tenant);
    EXPECT_EQ(back->query_name, m.query_name);
    EXPECT_EQ(back->query, m.query);
    EXPECT_EQ(back->top_k, m.top_k);
    EXPECT_EQ(back->min_score, m.min_score);
    EXPECT_EQ(back->filter, m.filter);
    EXPECT_EQ(back->filter_threshold, m.filter_threshold);
    EXPECT_EQ(back->align, m.align);
    EXPECT_EQ(back->max_hits, m.max_hits);
    EXPECT_EQ(back->deadline_ms, m.deadline_ms);
  }
}

TEST(WireRoundTrip, HitWithAndWithoutAlignment) {
  std::mt19937_64 rng(202);
  for (int k = 0; k < 200; ++k) {
    WireHit m;
    m.request_id = rng();
    m.rank = static_cast<std::uint32_t>(rng());
    m.record = static_cast<std::uint32_t>(rng());
    m.name = random_text(rng, 40);
    m.score = static_cast<std::int32_t>(rng());
    m.end_i = static_cast<std::uint32_t>(rng());
    m.end_j = static_cast<std::uint32_t>(rng());
    m.has_alignment = static_cast<std::uint8_t>(rng() % 2);
    if (m.has_alignment) {
      m.begin_i = static_cast<std::uint32_t>(rng());
      m.begin_j = static_cast<std::uint32_t>(rng());
      m.identity_bits = rng();
      m.coverage_bits = rng();
      m.cigar = random_text(rng, 60);
    }
    const auto back = decode_hit(encode(m));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->name, m.name);
    EXPECT_EQ(back->score, m.score);
    EXPECT_EQ(back->has_alignment, m.has_alignment);
    EXPECT_EQ(back->begin_i, m.begin_i);
    EXPECT_EQ(back->identity_bits, m.identity_bits);
    EXPECT_EQ(back->cigar, m.cigar);
  }
}

TEST(WireRoundTrip, DoneErrorCancel) {
  std::mt19937_64 rng(303);
  for (int k = 0; k < 200; ++k) {
    WireDone d;
    d.request_id = rng();
    d.status = static_cast<std::uint8_t>(rng() % 4);
    d.error = random_text(rng, 50);
    d.hit_count = static_cast<std::uint32_t>(rng());
    d.records_scanned = rng();
    d.cell_updates = rng();
    d.swar8_fallbacks = rng();
    d.filter_candidates = rng();
    d.filter_rescored = rng();
    d.filter_rejected = rng();
    d.filter_recall_guard = rng();
    const auto dback = decode_done(encode(d));
    ASSERT_TRUE(dback.has_value());
    EXPECT_EQ(dback->error, d.error);
    EXPECT_EQ(dback->cell_updates, d.cell_updates);
    EXPECT_EQ(dback->filter_recall_guard, d.filter_recall_guard);

    WireError e;
    e.request_id = rng();
    e.code = static_cast<ErrorCode>(1 + rng() % 10);
    e.retry_after_ms = static_cast<std::uint32_t>(rng());
    e.message = random_text(rng, 50);
    const auto eback = decode_error(encode(e));
    ASSERT_TRUE(eback.has_value());
    EXPECT_EQ(eback->code, e.code);
    EXPECT_EQ(eback->retry_after_ms, e.retry_after_ms);
    EXPECT_EQ(eback->message, e.message);

    const auto cback = decode_cancel(encode(WireCancel{rng()}));
    ASSERT_TRUE(cback.has_value());
  }
}

// ---- decoder rejections ---------------------------------------------------

TEST(WireDecode, RejectsEveryTruncation) {
  WireRequest req;
  req.request_id = 7;
  req.tenant = "acme";
  req.query_name = "qname";
  req.query = "ACGTACGT";
  const std::vector<std::uint8_t> full = encode(req);
  for (std::size_t n = 0; n < full.size(); ++n) {
    const std::vector<std::uint8_t> cut(full.begin(), full.begin() + static_cast<long>(n));
    EXPECT_FALSE(decode_request(cut).has_value()) << "prefix " << n;
  }
}

TEST(WireDecode, RejectsTrailingGarbage) {
  for (std::uint8_t extra : {std::uint8_t{0x00}, std::uint8_t{0xff}}) {
    auto p = encode(WireCancel{9});
    p.push_back(extra);
    EXPECT_FALSE(decode_cancel(p).has_value());
    auto q = encode(test::planted_request(1));
    q.push_back(extra);
    EXPECT_FALSE(decode_request(q).has_value());
  }
}

TEST(WireDecode, RejectsStringOverrunningPayload) {
  // A tenant length field claiming more bytes than the payload holds.
  const std::vector<std::uint8_t> p = {0, 0, 0, 0, 0, 0, 0, 0,   // request_id
                                       0xff, 0xff, 0xff, 0x7f};  // tenant length = 2^31-1
  EXPECT_FALSE(decode_request(p).has_value());
}

TEST(WireDecode, RejectsBadEnumValues) {
  WireHit h;
  h.name = "r";
  auto p = encode(h);
  // has_alignment is the last byte of the alignment-free layout.
  p.back() = 2;
  EXPECT_FALSE(decode_hit(p).has_value());

  WireError e;
  e.message = "m";
  auto q = encode(e);
  q[8] = 0;  // code low byte -> 0 (below BadMagic)
  q[9] = 0;
  EXPECT_FALSE(decode_error(q).has_value());
  q[8] = 11;  // above Shutdown
  EXPECT_FALSE(decode_error(q).has_value());
}

TEST(WireHeader, ParseClassesAndPrecedence) {
  FrameHeader h;
  h.type = FrameType::Ping;
  h.length = 4;
  h.checksum = 0xdeadbeef;
  std::uint8_t buf[kFrameHeaderBytes];
  put_frame_header(h, buf);

  FrameHeader out;
  EXPECT_EQ(parse_frame_header(buf, out), HeaderStatus::Ok);
  EXPECT_EQ(out.length, 4u);
  EXPECT_EQ(out.checksum, 0xdeadbeefu);
  EXPECT_EQ(out.type, FrameType::Ping);

  std::uint8_t bad[kFrameHeaderBytes];
  std::memcpy(bad, buf, sizeof buf);
  bad[0] = 'X';
  EXPECT_EQ(parse_frame_header(bad, out), HeaderStatus::BadMagic);

  std::memcpy(bad, buf, sizeof buf);
  bad[4] = kWireVersion + 1;
  EXPECT_EQ(parse_frame_header(bad, out), HeaderStatus::BadVersion);
  EXPECT_EQ(out.length, 4u) << "resync needs the declared length";

  std::memcpy(bad, buf, sizeof buf);
  bad[5] = 0x7f;
  EXPECT_EQ(parse_frame_header(bad, out), HeaderStatus::BadType);

  // Oversized wins over a bad version: the length cannot be trusted, so
  // its no-consume resync policy must apply.
  std::memcpy(bad, buf, sizeof buf);
  bad[4] = kWireVersion + 1;
  bad[11] = 0xff;  // length high byte -> way past kMaxFrameBytes
  EXPECT_EQ(parse_frame_header(bad, out), HeaderStatus::Oversized);
}

// ---- server malformed-frame contract --------------------------------------

class WireConformance : public ::testing::Test {
 protected:
  static svc::net::ServerConfig config() {
    svc::net::ServerConfig cfg;
    cfg.service.cpu_workers = 1;
    return cfg;
  }

  test::NetServerFixture fixture_{"wire_conformance.swdb", config()};

  // Asserts the next frame is Error(code), then proves the connection
  // still works end to end: ping echoes and a real scan resolves.
  void expect_error_then_healthy(ScanClient& client, ErrorCode code) {
    ClientFrame frame;
    std::string error;
    ASSERT_TRUE(client.read_frame(frame, 5000ms, error)) << error;
    ASSERT_EQ(frame.type, FrameType::Error);
    const auto err = decode_error(frame.payload);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, code);
    EXPECT_EQ(err->request_id, 0u) << "header-level errors are unattributable";

    EXPECT_TRUE(client.ping());
    const ClientResponse resp = client.scan(test::planted_request(99));
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_GT(resp.hits.size(), 0u);
  }
};

TEST_F(WireConformance, BadMagicRecovers) {
  ScanClient client = fixture_.connect();
  std::uint8_t junk[kFrameHeaderBytes];
  std::memset(junk, 'Z', sizeof junk);
  ASSERT_TRUE(client.send_bytes(junk, sizeof junk));
  expect_error_then_healthy(client, ErrorCode::BadMagic);
  EXPECT_GE(fixture_.registry().snapshot().counter("svc.net.errors.bad_magic"), 1u);
}

TEST_F(WireConformance, BadVersionRecovers) {
  ScanClient client = fixture_.connect();
  std::vector<std::uint8_t> frame = make_frame(FrameType::Ping, {1, 2, 3});
  frame[4] = kWireVersion + 1;
  ASSERT_TRUE(client.send_bytes(frame.data(), frame.size()));
  expect_error_then_healthy(client, ErrorCode::BadVersion);
  EXPECT_GE(fixture_.registry().snapshot().counter("svc.net.errors.bad_version"), 1u);
}

TEST_F(WireConformance, BadChecksumRecovers) {
  ScanClient client = fixture_.connect();
  std::vector<std::uint8_t> frame = make_frame(FrameType::Ping, {1, 2, 3});
  frame[12] ^= 0xff;
  ASSERT_TRUE(client.send_bytes(frame.data(), frame.size()));
  expect_error_then_healthy(client, ErrorCode::BadChecksum);
  EXPECT_GE(fixture_.registry().snapshot().counter("svc.net.errors.bad_checksum"), 1u);
}

TEST_F(WireConformance, OversizedRecoversWithoutConsuming) {
  ScanClient client = fixture_.connect();
  FrameHeader h;
  h.type = FrameType::Request;
  h.length = static_cast<std::uint32_t>(kMaxFrameBytes) + 1;
  std::uint8_t buf[kFrameHeaderBytes];
  put_frame_header(h, buf);
  // Only the header goes out — if the server tried to consume the claimed
  // payload it would hang here, and the follow-up ping would time out.
  ASSERT_TRUE(client.send_bytes(buf, sizeof buf));
  expect_error_then_healthy(client, ErrorCode::Oversized);
  EXPECT_GE(fixture_.registry().snapshot().counter("svc.net.errors.oversized"), 1u);
}

TEST_F(WireConformance, BadTypeRecovers) {
  ScanClient client = fixture_.connect();
  std::vector<std::uint8_t> frame = make_frame(FrameType::Ping, {9, 9});
  frame[5] = 0x6e;
  ASSERT_TRUE(client.send_bytes(frame.data(), frame.size()));
  expect_error_then_healthy(client, ErrorCode::BadType);
  EXPECT_GE(fixture_.registry().snapshot().counter("svc.net.errors.bad_type"), 1u);
}

TEST_F(WireConformance, ServerOnlyFrameTypeIsBadRequest) {
  ScanClient client = fixture_.connect();
  ASSERT_TRUE(client.send_frame(FrameType::Done, encode(WireDone{})));
  expect_error_then_healthy(client, ErrorCode::BadRequest);
}

TEST_F(WireConformance, MalformedRequestPayloadIsBadRequest) {
  ScanClient client = fixture_.connect();
  // Structurally valid frame, undecodable Request payload.
  ASSERT_TRUE(client.send_frame(FrameType::Request, {0xde, 0xad}));
  expect_error_then_healthy(client, ErrorCode::BadRequest);
  EXPECT_GE(fixture_.registry().snapshot().counter("svc.net.errors.bad_request"), 1u);
}

TEST_F(WireConformance, InvalidResidueQueryIsBadRequest) {
  ScanClient client = fixture_.connect();
  WireRequest req = test::planted_request(5);
  req.query = "NOT-DNA-123";
  const ClientResponse resp = client.scan(req);
  EXPECT_FALSE(resp.ok);
  ASSERT_EQ(resp.errors.size(), 1u);
  EXPECT_EQ(resp.errors[0].code, ErrorCode::BadRequest);
  EXPECT_EQ(resp.errors[0].request_id, 5u);
  // The connection survives a rejected request.
  EXPECT_TRUE(client.ping());
}

TEST_F(WireConformance, TruncatedFrameClosesConnectionServerStaysUp) {
  {
    ScanClient client = fixture_.connect();
    std::vector<std::uint8_t> frame = make_frame(FrameType::Ping, {1, 2, 3, 4});
    ASSERT_TRUE(client.send_bytes(frame.data(), frame.size() - 2));
    client.close();  // EOF mid-frame
  }
  // A fresh connection is served normally.
  ScanClient client = fixture_.connect();
  EXPECT_TRUE(client.ping());
  const ClientResponse resp = client.scan(test::planted_request(1));
  EXPECT_TRUE(resp.ok) << resp.error;
}

TEST_F(WireConformance, PingEchoesPayload) {
  ScanClient client = fixture_.connect();
  const std::vector<std::uint8_t> token{0xab, 0x00, 0xcd};
  ASSERT_TRUE(client.send_frame(FrameType::Ping, token));
  ClientFrame frame;
  std::string error;
  ASSERT_TRUE(client.read_frame(frame, 5000ms, error)) << error;
  EXPECT_EQ(frame.type, FrameType::Pong);
  EXPECT_EQ(frame.payload, token);
}

}  // namespace
