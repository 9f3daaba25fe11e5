#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eval/estimator.h"
#include "serve/client_channel.h"
#include "serve/frontend.h"
#include "serve/wire.h"
#include "serve/wire_binary.h"
#include "util/net.h"
#include "util/rng.h"
#include "serve_await.h"

// The binary wire path end to end: the frame codec (bit-exact floats,
// hostile-input rejection), the command registry, per-connection protocol
// negotiation on a live frontend (mixed JSON + binary connections), the
// malformed-frame connection policy, the multi-loop frontend, and the
// pipelined ClientChannel's out-of-order tag correlation.

namespace selnet::serve {
namespace {

using tensor::Matrix;

// ----------------------------------------------------------- frame codec ---

TEST(BinaryCodecTest, RequestFrameRoundTripsBitIdentically) {
  EstimateRequest req;
  req.model = "route-binary";
  req.tag = 901;
  req.wire_trace = true;
  util::Rng rng(17);
  for (int i = 0; i < 24; ++i) {
    req.x.push_back(float(rng.Uniform(-100.0, 100.0)));
  }
  // Deliberately awkward floats: denormal-adjacent, negative zero, huge.
  req.thresholds = {1e-38f, -0.0f, 3.14159274f, 1e30f};

  std::string buf;
  AppendRequestFrame(&buf, req);
  ASSERT_GE(buf.size(), kFrameHeaderBytes);

  FrameHeader hdr;
  std::string err;
  ASSERT_EQ(PeelFrameHeader(buf.data(), buf.size(), 1 << 20, &hdr, &err),
            FramePeel::kFrame)
      << err;
  EXPECT_EQ(hdr.type, FrameType::kEstimate);
  EXPECT_EQ(hdr.tag, req.tag);
  EXPECT_EQ(hdr.version, kWireVersion);
  ASSERT_EQ(buf.size(), kFrameHeaderBytes + hdr.payload_len);

  EstimateRequest parsed;
  ASSERT_TRUE(DecodeRequestPayload(buf.data() + kFrameHeaderBytes,
                                   hdr.payload_len,
                                   std::chrono::steady_clock::now(), &parsed)
                  .ok());
  EXPECT_EQ(parsed.model, req.model);
  EXPECT_TRUE(parsed.wire_trace);
  EXPECT_FALSE(parsed.has_deadline());
  ASSERT_EQ(parsed.x.size(), req.x.size());
  for (size_t i = 0; i < req.x.size(); ++i) {
    // memcmp, not ==: bit-exact even for -0.0f.
    EXPECT_EQ(std::memcmp(&parsed.x[i], &req.x[i], sizeof(float)), 0)
        << "x[" << i << "]";
  }
  ASSERT_EQ(parsed.thresholds.size(), req.thresholds.size());
  for (size_t i = 0; i < req.thresholds.size(); ++i) {
    EXPECT_EQ(std::memcmp(&parsed.thresholds[i], &req.thresholds[i],
                          sizeof(float)),
              0);
  }
}

TEST(BinaryCodecTest, DeadlineTravelsAsRelativeBudget) {
  EstimateRequest req;
  req.x = {1.0f};
  req.thresholds = {0.5f};
  auto now = std::chrono::steady_clock::now();
  req.deadline = now + std::chrono::milliseconds(500);

  std::string buf;
  AppendRequestFrame(&buf, req);
  FrameHeader hdr;
  std::string err;
  ASSERT_EQ(PeelFrameHeader(buf.data(), buf.size(), 1 << 20, &hdr, &err),
            FramePeel::kFrame);
  // Re-anchor at a decode clock 100ms ahead of the encode clock: the budget
  // is relative, so the decoded absolute deadline shifts with the anchor.
  auto decode_now = now + std::chrono::milliseconds(100);
  EstimateRequest parsed;
  ASSERT_TRUE(DecodeRequestPayload(buf.data() + kFrameHeaderBytes,
                                   hdr.payload_len, decode_now, &parsed)
                  .ok());
  ASSERT_TRUE(parsed.has_deadline());
  double budget_ms = std::chrono::duration<double, std::milli>(
                         parsed.deadline - decode_now)
                         .count();
  EXPECT_GT(budget_ms, 450.0);
  EXPECT_LT(budget_ms, 550.0);

  // Hostile budgets patched into the same frame (flags u8 + empty route
  // precede the f32). Budgets the clock cannot represent never expire, NaN
  // is a typed decode error, and a non-positive budget is already expired.
  auto decode_budget = [&](float budget, EstimateRequest* out) {
    uint32_t bits;
    std::memcpy(&bits, &budget, sizeof(bits));
    std::string hostile = buf;
    for (size_t b = 0; b < 4; ++b) {
      hostile[kFrameHeaderBytes + 2 + b] = char((bits >> (8 * b)) & 0xff);
    }
    return DecodeRequestPayload(hostile.data() + kFrameHeaderBytes,
                                hdr.payload_len, decode_now, out);
  };
  for (float budget : {1e13f, std::numeric_limits<float>::infinity()}) {
    EstimateRequest forever;
    ASSERT_TRUE(decode_budget(budget, &forever).ok()) << budget;
    EXPECT_EQ(forever.deadline, std::chrono::steady_clock::time_point::max())
        << budget;
  }
  EstimateRequest nan_budget;
  util::Status nan_status = decode_budget(
      std::numeric_limits<float>::quiet_NaN(), &nan_budget);
  EXPECT_EQ(nan_status.code(), util::StatusCode::kInvalidArgument);
  EstimateRequest expired;
  ASSERT_TRUE(decode_budget(-1.0f, &expired).ok());
  ASSERT_TRUE(expired.has_deadline());
  EXPECT_LE(expired.deadline, decode_now);
}

TEST(BinaryCodecTest, ResponseFrameRoundTripsBitIdentically) {
  EstimateResponse resp;
  resp.model = "m";
  resp.version = 12345678901234ull;
  resp.cache_hits = 3;
  resp.fast_path = true;
  resp.degraded = true;
  resp.tag = 42;
  resp.estimates = {1.5f, -0.0f, 3.14159274f, 1e-30f, 123456.789f};
  resp.stage_ms = {0.1f, 0.2f, 0.3f, 0.4f, 0.0f, 0.0f, 0.0f, 0.0f};

  std::string buf;
  AppendResponseFrame(&buf, resp);
  FrameHeader hdr;
  std::string err;
  ASSERT_EQ(PeelFrameHeader(buf.data(), buf.size(), 1 << 20, &hdr, &err),
            FramePeel::kFrame);
  EXPECT_EQ(hdr.type, FrameType::kResponse);
  EXPECT_EQ(hdr.tag, resp.tag);

  EstimateResponse parsed;
  ASSERT_TRUE(DecodeResponsePayload(buf.data() + kFrameHeaderBytes,
                                    hdr.payload_len, &parsed)
                  .ok());
  EXPECT_EQ(parsed.model, resp.model);
  EXPECT_EQ(parsed.version, resp.version);
  EXPECT_EQ(parsed.cache_hits, resp.cache_hits);
  EXPECT_EQ(parsed.fast_path, resp.fast_path);
  EXPECT_EQ(parsed.degraded, resp.degraded);
  ASSERT_EQ(parsed.estimates.size(), resp.estimates.size());
  for (size_t i = 0; i < resp.estimates.size(); ++i) {
    EXPECT_EQ(std::memcmp(&parsed.estimates[i], &resp.estimates[i],
                          sizeof(float)),
              0)
        << "estimates[" << i << "]";
  }
  ASSERT_EQ(parsed.stage_ms.size(), resp.stage_ms.size());
}

TEST(BinaryCodecTest, ErrorFrameMapsToTypedStatusTaxonomy) {
  struct Case {
    const char* code;
    util::StatusCode want;
  } cases[] = {
      {"queue_full", util::StatusCode::kUnavailable},
      {"priority_shed", util::StatusCode::kUnavailable},
      {"shutdown", util::StatusCode::kUnavailable},
      {"deadline_exceeded", util::StatusCode::kDeadlineExceeded},
      {"not_found", util::StatusCode::kNotFound},
      {"", util::StatusCode::kInternal},
  };
  for (const Case& c : cases) {
    std::string buf;
    AppendErrorFrame(&buf, "boom: detail text", c.code, 77);
    FrameHeader hdr;
    std::string err;
    ASSERT_EQ(PeelFrameHeader(buf.data(), buf.size(), 1 << 20, &hdr, &err),
              FramePeel::kFrame);
    EXPECT_EQ(hdr.type, FrameType::kError);
    EXPECT_EQ(hdr.tag, 77u);
    std::string code, message;
    ASSERT_TRUE(DecodeErrorPayload(buf.data() + kFrameHeaderBytes,
                                   hdr.payload_len, &code, &message)
                    .ok());
    EXPECT_EQ(code, c.code);
    EXPECT_EQ(message, "boom: detail text");
    EXPECT_EQ(StatusFromWireError(code, message).code(), c.want) << c.code;
  }
}

TEST(BinaryCodecTest, AdminFrameWrapsJsonLineVerbatim) {
  const std::string line = "{\"cmd\":\"stats\",\"tag\":9}";
  std::string buf;
  AppendAdminFrame(&buf, FrameType::kAdmin, 9, line);
  FrameHeader hdr;
  std::string err;
  ASSERT_EQ(PeelFrameHeader(buf.data(), buf.size(), 1 << 20, &hdr, &err),
            FramePeel::kFrame);
  EXPECT_EQ(hdr.type, FrameType::kAdmin);
  EXPECT_EQ(hdr.tag, 9u);
  EXPECT_EQ(buf.substr(kFrameHeaderBytes), line);
}

TEST(BinaryCodecTest, PeelRejectsGarbageAndHostileLengths) {
  EstimateRequest req;
  req.x = {1.0f};
  req.thresholds = {0.5f};
  std::string good;
  AppendRequestFrame(&good, req);

  FrameHeader hdr;
  std::string err;
  // Short buffer: not an error, just bytes still in flight.
  EXPECT_EQ(PeelFrameHeader(good.data(), kFrameHeaderBytes - 1, 1 << 20, &hdr,
                            &err),
            FramePeel::kNeedMore);
  EXPECT_EQ(PeelFrameHeader(good.data(), 0, 1 << 20, &hdr, &err),
            FramePeel::kNeedMore);

  // Bad magic (a JSON line can never alias a frame: '{' != 0xD5).
  std::string bad = good;
  bad[0] = '{';
  EXPECT_EQ(PeelFrameHeader(bad.data(), bad.size(), 1 << 20, &hdr, &err),
            FramePeel::kBad);
  bad = good;
  bad[1] = 'X';
  EXPECT_EQ(PeelFrameHeader(bad.data(), bad.size(), 1 << 20, &hdr, &err),
            FramePeel::kBad);

  // Unknown version.
  bad = good;
  bad[2] = char(99);
  EXPECT_EQ(PeelFrameHeader(bad.data(), bad.size(), 1 << 20, &hdr, &err),
            FramePeel::kBad);

  // Unknown frame type.
  bad = good;
  bad[3] = char(200);
  EXPECT_EQ(PeelFrameHeader(bad.data(), bad.size(), 1 << 20, &hdr, &err),
            FramePeel::kBad);

  // A hostile payload_len over the receiver's cap must be rejected BEFORE
  // any buffering decision trusts it.
  bad = good;
  bad[4] = char(0xFF);
  bad[5] = char(0xFF);
  bad[6] = char(0xFF);
  bad[7] = char(0x7F);
  EXPECT_EQ(PeelFrameHeader(bad.data(), bad.size(), 1 << 20, &hdr, &err),
            FramePeel::kBad);
  EXPECT_FALSE(err.empty());
}

TEST(BinaryCodecTest, TruncatedPayloadsAreTypedDecodeErrors) {
  EstimateRequest req;
  req.model = "m";
  req.tag = 5;
  for (int i = 0; i < 8; ++i) req.x.push_back(float(i));
  req.thresholds = {0.25f, 0.5f};
  std::string buf;
  AppendRequestFrame(&buf, req);
  const char* payload = buf.data() + kFrameHeaderBytes;
  const size_t len = buf.size() - kFrameHeaderBytes;

  EstimateRequest out;
  auto now = std::chrono::steady_clock::now();
  EXPECT_FALSE(DecodeRequestPayload(payload, 0, now, &out).ok());
  EXPECT_FALSE(DecodeRequestPayload(payload, len / 2, now, &out).ok());
  EXPECT_FALSE(DecodeRequestPayload(payload, len - 1, now, &out).ok());

  // An array count that claims more elements than the payload holds is a
  // typed error, never an allocation of the claimed size.
  std::string hostile(buf.substr(kFrameHeaderBytes));
  // The x count sits right after flags + model (u8 len + bytes).
  size_t count_at = 1 + 1 + req.model.size();
  hostile[count_at] = char(0xFF);
  hostile[count_at + 1] = char(0xFF);
  hostile[count_at + 2] = char(0xFF);
  hostile[count_at + 3] = char(0x7F);
  EXPECT_FALSE(
      DecodeRequestPayload(hostile.data(), hostile.size(), now, &out).ok());
}

// ------------------------------------------------------ command registry ---

TEST(CommandRegistryTest, TableIsExhaustiveAndBijective) {
  for (size_t i = 0; i < kNumCommands; ++i) {
    const Command cmd = Command(i);
    const CommandInfo* info = FindCommand(cmd);
    ASSERT_NE(info, nullptr) << "command " << i;
    EXPECT_EQ(info->cmd, cmd) << "table order must match the enum";
    EXPECT_GE(info->since_version, 1);
    EXPECT_LE(info->since_version, kWireVersion);
    // By-name lookup lands on the same row.
    const CommandInfo* by_name = FindCommand(std::string(info->name));
    ASSERT_NE(by_name, nullptr) << info->name;
    EXPECT_EQ(by_name->cmd, cmd);
  }
  EXPECT_EQ(FindCommand(std::string("bogus")), nullptr);
  EXPECT_EQ(FindCommand(std::string("")), nullptr);
  // Spot-check the wire names are the protocol's, not the enum's.
  EXPECT_STREQ(FindCommand(Command::kStatsWire)->name, "stats_wire");
  EXPECT_STREQ(FindCommand(Command::kXferCommit)->name, "xfer_commit");
  EXPECT_STREQ(FindCommand(Command::kHello)->name, "hello");
}

TEST(CommandRegistryTest, HelloLineRoundTrips) {
  std::string line = SerializeHello(WireProto::kBinary, kWireVersion);
  AdminRequest admin;
  ASSERT_TRUE(ParseAdminLine(line, &admin).ok()) << line;
  EXPECT_EQ(admin.cmd, "hello");
  EXPECT_EQ(admin.proto, "binary");
  EXPECT_EQ(admin.max_version, kWireVersion);
}

// ------------------------------------------------------- live frontend ----

// Deterministic servable: estimate = bias + sum(x) + t. Distinguishable per
// request, so correlation bugs surface as value mismatches.
class AffineEstimator : public eval::Estimator {
 public:
  explicit AffineEstimator(float bias) : bias_(bias) {}
  std::string Name() const override { return "Affine"; }
  bool IsConsistent() const override { return true; }
  void Fit(const eval::TrainContext&) override {}
  Matrix Predict(const Matrix& x, const Matrix& t) override {
    Matrix y(x.rows(), 1);
    for (size_t i = 0; i < x.rows(); ++i) {
      float sum = bias_;
      for (size_t j = 0; j < x.cols(); ++j) sum += x(i, j);
      y(i, 0) = sum + t(i, 0);
    }
    return y;
  }

 private:
  float bias_;
};

ServerConfig CheapServerConfig(size_t dim = 4) {
  ServerConfig cfg;
  cfg.dim = dim;
  cfg.enable_cache = false;
  cfg.scheduler.max_batch = 16;
  return cfg;
}

class BinaryFrontendFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<SelNetServer>(CheapServerConfig());
    server_->Publish(std::make_shared<AffineEstimator>(10.0f));
    frontend_ = std::make_unique<NetFrontend>(FrontendConfig{}, server_.get());
    ASSERT_TRUE(frontend_->status().ok()) << frontend_->status().ToString();
    ASSERT_TRUE(client_.Connect("127.0.0.1", frontend_->port()).ok());
    client_.set_recv_timeout_ms(10000);
    ASSERT_TRUE(client_.Hello().ok());
    ASSERT_EQ(client_.proto(), WireProto::kBinary);
  }

  void TearDown() override {
    client_.Close();
    frontend_.reset();
    server_.reset();
  }

  std::unique_ptr<SelNetServer> server_;
  std::unique_ptr<NetFrontend> frontend_;
  NetClient client_;
};

TEST_F(BinaryFrontendFixture, BinaryRoundtripMatchesInProcessBitIdentically) {
  util::Rng rng(23);
  for (int i = 0; i < 20; ++i) {
    EstimateRequest req;
    for (int j = 0; j < 4; ++j) req.x.push_back(float(rng.Uniform()));
    for (int j = 0; j <= i % 3; ++j) {
      req.thresholds.push_back(float(rng.Uniform()));
    }
    req.tag = uint64_t(i + 1);

    util::Result<ClientReply> wire = client_.Call({Command::kEstimate, req});
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EstimateResponse direct = Await(*server_, req);
    const EstimateResponse& remote = wire.ValueOrDie().estimate;
    ASSERT_EQ(remote.estimates.size(), direct.estimates.size());
    for (size_t k = 0; k < direct.estimates.size(); ++k) {
      // The acceptance bar: raw IEEE-754 words over the wire, EXPECT_EQ.
      EXPECT_EQ(remote.estimates[k], direct.estimates[k])
          << "request " << i << " threshold " << k;
    }
    EXPECT_EQ(remote.tag, req.tag);
    EXPECT_EQ(remote.model, direct.model);
  }
  FrontendStats stats = frontend_->Stats();
  EXPECT_EQ(stats.requests, 20u);
  EXPECT_EQ(stats.responses, 20u);
  EXPECT_EQ(stats.parse_errors, 0u);
}

TEST_F(BinaryFrontendFixture, MixedJsonAndBinaryConnectionsCoexist) {
  // A second, un-negotiated connection speaks JSON to the SAME frontend
  // while this fixture's connection speaks binary.
  NetClient json;
  ASSERT_TRUE(json.Connect("127.0.0.1", frontend_->port()).ok());
  json.set_recv_timeout_ms(10000);
  ASSERT_EQ(json.proto(), WireProto::kJson);

  EstimateRequest req;
  req.x = {0.5f, 0.25f, 0.125f, 0.0625f};
  req.thresholds = {1.0f};
  for (int i = 0; i < 10; ++i) {
    req.tag = uint64_t(100 + i);
    util::Result<ClientReply> b = client_.Call({Command::kEstimate, req});
    util::Result<ClientReply> j = json.Call({Command::kEstimate, req});
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_TRUE(j.ok()) << j.status().ToString();
    // Same request, same backend: both framings must produce the same bits.
    const EstimateResponse& bin = b.ValueOrDie().estimate;
    const EstimateResponse& text = j.ValueOrDie().estimate;
    ASSERT_EQ(bin.estimates.size(), text.estimates.size());
    EXPECT_EQ(bin.estimates[0], text.estimates[0]);
  }
  EXPECT_EQ(frontend_->Stats().requests, 20u);
}

TEST_F(BinaryFrontendFixture, AdminPlaneRidesBinaryFrames) {
  EstimateRequest req;
  req.x = {0.0f, 0.0f, 0.0f, 0.0f};
  req.thresholds = {0.5f};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client_.Call({Command::kEstimate, req}).ok());
  }

  // One JSON admin line inside an admin frame; the reply line comes back
  // the same way.
  util::Result<ClientReply> stats =
      client_.Call({Command::kStats, {}, {"stats", 31}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::string& line = stats.ValueOrDie().body;
  EXPECT_NE(line.find("\"stats\""), std::string::npos);
  EXPECT_NE(line.find("\"tag\":31"), std::string::npos);
  EXPECT_NE(line.find("\"requests\":4"), std::string::npos);

  // The typed surface: health ack, metrics exposition, machine scrape.
  ClientCall health;
  health.cmd = Command::kHealth;
  health.admin.tag = 7;
  ASSERT_TRUE(client_.Call(health).ok());

  util::Result<ClientReply> metrics = client_.Call({Command::kMetrics});
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics.ValueOrDie().text.find("selnet_requests_total"),
            std::string::npos);

  util::Result<ClientReply> scrape = client_.Call({Command::kStatsWire});
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  EXPECT_EQ(scrape.ValueOrDie().stats.requests, 4u);

  // Unknown commands still answer (with an error line in an admin-reply
  // frame), connection lives.
  AdminRequest bogus;
  bogus.cmd = "bogus";
  bogus.tag = 3;
  std::string frame;
  AppendAdminFrame(&frame, FrameType::kAdmin, 3,
                   SerializeAdminRequest(bogus));
  ASSERT_TRUE(client_.SendRaw(frame).ok());
  FrameHeader hdr;
  util::Result<std::string> unknown = client_.ReadFrame(&hdr);
  ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
  EXPECT_EQ(hdr.type, FrameType::kAdminReply);
  EXPECT_EQ(hdr.tag, 3u);
  EXPECT_NE(unknown.ValueOrDie().find("unknown admin cmd"), std::string::npos);
  ASSERT_TRUE(client_.Call({Command::kEstimate, req}).ok());
}

TEST_F(BinaryFrontendFixture, UnknownRouteIsTypedNotFoundAndConnSurvives) {
  EstimateRequest req;
  req.model = "never-published";
  req.x = {0.0f, 0.0f, 0.0f, 0.0f};
  req.thresholds = {1.0f};
  req.tag = 9;
  util::Result<ClientReply> bad = client_.Call({Command::kEstimate, req});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kNotFound)
      << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("never-published"), std::string::npos);

  // A per-request failure never costs the connection.
  req.model.clear();
  ASSERT_TRUE(client_.Call({Command::kEstimate, req}).ok());
}

TEST_F(BinaryFrontendFixture, BadMagicGetsOneErrorFrameThenClose) {
  // 16 bytes of garbage where a frame header should be: framing is lost, so
  // the documented policy is one kError frame (tag 0, code "bad_frame") and
  // a close — mirroring the JSON oversized-line policy.
  ASSERT_TRUE(client_.SendRaw("XXXXXXXXXXXXXXXX").ok());
  FrameHeader hdr;
  util::Result<std::string> payload = client_.ReadFrame(&hdr);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(hdr.type, FrameType::kError);
  EXPECT_EQ(hdr.tag, 0u);
  std::string code, message;
  ASSERT_TRUE(DecodeErrorPayload(payload.ValueOrDie().data(),
                                 payload.ValueOrDie().size(), &code, &message)
                  .ok());
  EXPECT_EQ(code, "bad_frame");
  // The server closes after flushing the error.
  util::Result<std::string> eof = client_.ReadFrame(&hdr);
  EXPECT_FALSE(eof.ok());
  EXPECT_GE(frontend_->Stats().parse_errors, 1u);

  // The frontend itself is fine: a fresh connection negotiates and serves.
  NetClient again;
  ASSERT_TRUE(again.Connect("127.0.0.1", frontend_->port()).ok());
  again.set_recv_timeout_ms(10000);
  ASSERT_TRUE(again.Hello().ok());
  EstimateRequest req;
  req.x = {0.0f, 0.0f, 0.0f, 0.0f};
  req.thresholds = {0.5f};
  EXPECT_TRUE(again.Call({Command::kEstimate, req}).ok());
}

TEST_F(BinaryFrontendFixture, OversizedFrameLengthIsRejectedThenClosed) {
  // A header whose payload_len exceeds the server's cap (max_line_bytes,
  // default 1 MiB): rejected from the header alone, before any buffering.
  std::string hdr_bytes;
  AppendAdminFrame(&hdr_bytes, FrameType::kAdmin, 5, "{}");
  hdr_bytes.resize(kFrameHeaderBytes);  // Header only.
  hdr_bytes[4] = char(0xFF);            // payload_len = 0x7FFFFFFF.
  hdr_bytes[5] = char(0xFF);
  hdr_bytes[6] = char(0xFF);
  hdr_bytes[7] = char(0x7F);
  ASSERT_TRUE(client_.SendRaw(hdr_bytes).ok());
  FrameHeader hdr;
  util::Result<std::string> payload = client_.ReadFrame(&hdr);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(hdr.type, FrameType::kError);
  std::string code, message;
  ASSERT_TRUE(DecodeErrorPayload(payload.ValueOrDie().data(),
                                 payload.ValueOrDie().size(), &code, &message)
                  .ok());
  EXPECT_EQ(code, "bad_frame");
  EXPECT_FALSE(client_.ReadFrame(&hdr).ok());  // Closed.
}

TEST_F(BinaryFrontendFixture, TruncatedFrameIsJustBytesInFlight) {
  EstimateRequest req;
  req.x = {1.0f, 1.0f, 1.0f, 1.0f};
  req.thresholds = {0.5f};
  req.tag = 6;
  std::string frame;
  AppendRequestFrame(&frame, req);

  // First half only: no reply (and no error) until the rest arrives.
  ASSERT_TRUE(client_.SendRaw(frame.substr(0, frame.size() / 2)).ok());
  client_.set_recv_timeout_ms(100);
  FrameHeader hdr;
  util::Result<std::string> early = client_.ReadFrame(&hdr);
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), util::StatusCode::kDeadlineExceeded);

  // Completing the frame completes the request on the same connection.
  ASSERT_TRUE(client_.SendRaw(frame.substr(frame.size() / 2)).ok());
  client_.set_recv_timeout_ms(10000);
  util::Result<std::string> payload = client_.ReadFrame(&hdr);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(hdr.type, FrameType::kResponse);
  EXPECT_EQ(hdr.tag, 6u);
  EstimateResponse resp;
  ASSERT_TRUE(DecodeResponsePayload(payload.ValueOrDie().data(),
                                    payload.ValueOrDie().size(), &resp)
                  .ok());
  EXPECT_FLOAT_EQ(resp.estimates[0], 14.5f);  // 10 + 4*1 + 0.5.
}

TEST_F(BinaryFrontendFixture, ClientSentServerFrameTypeIsRejected) {
  // A client has no business sending kResponse; the server treats it like a
  // framing violation (typed error with the frame's tag, then close).
  EstimateResponse resp;
  resp.estimates = {1.0f};
  resp.tag = 13;
  std::string frame;
  AppendResponseFrame(&frame, resp);
  ASSERT_TRUE(client_.SendRaw(frame).ok());
  FrameHeader hdr;
  util::Result<std::string> payload = client_.ReadFrame(&hdr);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(hdr.type, FrameType::kError);
  EXPECT_EQ(hdr.tag, 13u);
  EXPECT_FALSE(client_.ReadFrame(&hdr).ok());  // Closed.
}

TEST(HelloNegotiationTest, JsonPreferenceSkipsNegotiation) {
  SelNetServer server(CheapServerConfig());
  server.Publish(std::make_shared<AffineEstimator>(0.0f));
  NetFrontend frontend(FrontendConfig{}, &server);
  ASSERT_TRUE(frontend.status().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", frontend.port()).ok());
  ASSERT_TRUE(client.Hello(WireProto::kJson).ok());
  EXPECT_EQ(client.proto(), WireProto::kJson);
  EstimateRequest req;
  req.x = {0.0f, 0.0f, 0.0f, 0.0f};
  req.thresholds = {1.0f};
  EXPECT_TRUE(client.Call({Command::kEstimate, req}).ok());
}

TEST(HelloNegotiationTest, HandWrittenHelloLineGetsVersionedAck) {
  SelNetServer server(CheapServerConfig());
  server.Publish(std::make_shared<AffineEstimator>(0.0f));
  NetFrontend frontend(FrontendConfig{}, &server);
  ASSERT_TRUE(frontend.status().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", frontend.port()).ok());
  client.set_recv_timeout_ms(10000);
  // A client asking for a FUTURE version negotiates down to the server max.
  ASSERT_TRUE(
      client
          .SendRaw("{\"cmd\":\"hello\",\"proto\":\"binary\","
                   "\"max_version\":200,\"tag\":4}\n")
          .ok());
  util::Result<std::string> ack = client.ReadLine();
  ASSERT_TRUE(ack.ok());
  util::Result<HelloResult> hello = ParseHelloReply(ack.ValueOrDie());
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_EQ(hello.ValueOrDie().proto, WireProto::kBinary);
  EXPECT_EQ(hello.ValueOrDie().version, kWireVersion);
  // The ack itself arrived as JSON; everything AFTER it is binary.
  EstimateRequest req;
  req.x = {0.0f, 0.0f, 0.0f, 0.0f};
  req.thresholds = {1.0f};
  req.tag = 2;
  std::string frame;
  AppendRequestFrame(&frame, req);
  ASSERT_TRUE(client.SendRaw(frame).ok());
  FrameHeader hdr;
  util::Result<std::string> payload = client.ReadFrame(&hdr);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(hdr.type, FrameType::kResponse);
  EXPECT_EQ(hdr.tag, 2u);
}

// -------------------------------------------------- multi-loop frontend ---

TEST(MultiLoopFrontendTest, ShardedAcceptorServesManyMixedConnections) {
  SelNetServer server(CheapServerConfig());
  server.Publish(std::make_shared<AffineEstimator>(1.0f));
  FrontendConfig fcfg;
  fcfg.num_loops = 3;
  NetFrontend frontend(fcfg, &server);
  ASSERT_TRUE(frontend.status().ok()) << frontend.status().ToString();

  const int kClients = 6, kPerClient = 10;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      NetClient client;
      if (!client.Connect("127.0.0.1", frontend.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      client.set_recv_timeout_ms(10000);
      // Half the clients negotiate binary, half stay JSON.
      if (c % 2 == 0 && !client.Hello().ok()) {
        failures.fetch_add(1);
        return;
      }
      EstimateRequest req;
      req.x = {float(c), 0.0f, 0.0f, 0.0f};
      req.thresholds = {0.5f};
      for (int i = 0; i < kPerClient; ++i) {
        req.tag = uint64_t(c * 100 + i);
        util::Result<ClientReply> resp = client.Call({Command::kEstimate, req});
        if (!resp.ok() || resp.ValueOrDie().estimate.tag != req.tag ||
            resp.ValueOrDie().estimate.estimates[0] != 1.0f + float(c) + 0.5f) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  FrontendStats stats = frontend.Stats();
  EXPECT_EQ(stats.requests, uint64_t(kClients * kPerClient));
  EXPECT_EQ(stats.responses, stats.requests);
  EXPECT_EQ(stats.connections_accepted, uint64_t(kClients));
}

TEST(MultiLoopFrontendTest, ReuseportModeServesWhenAvailable) {
  SelNetServer server(CheapServerConfig());
  server.Publish(std::make_shared<AffineEstimator>(0.0f));
  FrontendConfig fcfg;
  fcfg.num_loops = 2;
  fcfg.so_reuseport = true;  // Falls back to the acceptor if unsupported.
  NetFrontend frontend(fcfg, &server);
  ASSERT_TRUE(frontend.status().ok()) << frontend.status().ToString();
  for (int c = 0; c < 4; ++c) {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", frontend.port()).ok());
    client.set_recv_timeout_ms(10000);
    ASSERT_TRUE(client.Hello().ok());
    EstimateRequest req;
    req.x = {1.0f, 0.0f, 0.0f, 0.0f};
    req.thresholds = {0.5f};
    util::Result<ClientReply> resp = client.Call({Command::kEstimate, req});
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_FLOAT_EQ(resp.ValueOrDie().estimate.estimates[0], 1.5f);
  }
  EXPECT_EQ(frontend.Stats().requests, 4u);
}

// -------------------------------------------------- pipelined channel -----

class ChannelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<SelNetServer>(CheapServerConfig());
    server_->Publish(std::make_shared<AffineEstimator>(10.0f));
    frontend_ = std::make_unique<NetFrontend>(FrontendConfig{}, server_.get());
    ASSERT_TRUE(frontend_->status().ok());
  }

  void TearDown() override {
    frontend_.reset();
    server_.reset();
  }

  ClientChannelConfig ChannelCfg(WireProto preferred = WireProto::kBinary) {
    ClientChannelConfig cfg;
    cfg.address = "127.0.0.1";
    cfg.port = frontend_->port();
    cfg.preferred_proto = preferred;
    cfg.recv_timeout_ms = 10000;
    return cfg;
  }

  std::unique_ptr<SelNetServer> server_;
  std::unique_ptr<NetFrontend> frontend_;
};

// Collects completions for a known burst and lets the test await them all.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
  size_t errors = 0;
  std::vector<std::pair<uint64_t, float>> got;  // (caller tag, estimate).

  SelNetServer::ResponseFn Make() {
    return [this](EstimateResponse resp, std::exception_ptr error) {
      std::lock_guard<std::mutex> lock(mu);
      if (error) {
        ++errors;
      } else {
        got.emplace_back(resp.tag, resp.estimates.empty() ? -1.0f
                                                          : resp.estimates[0]);
      }
      ++done;
      cv.notify_all();
    };
  }
  void Await(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return done >= n; });
  }
};

TEST_F(ChannelFixture, PipelinedCallsCorrelateOutOfOrderReplies) {
  ClientChannel channel(ChannelCfg());
  ASSERT_TRUE(channel.Connect().ok());
  EXPECT_EQ(channel.proto(), WireProto::kBinary);
  EXPECT_TRUE(channel.up());

  // 48 requests pipelined without awaiting: the scheduler batches them
  // freely, so replies interleave; every completion must carry ITS request's
  // value and caller tag. Caller tags are deliberately non-sequential and
  // colliding with nothing the channel issues internally.
  const int kBurst = 48;
  Collector collector;
  for (int i = 0; i < kBurst; ++i) {
    EstimateRequest req;
    req.x = {float(i), 0.0f, 0.0f, 0.0f};
    req.thresholds = {0.5f};
    req.tag = uint64_t(1000 + 7 * i);
    channel.Call(std::move(req), collector.Make());
  }
  collector.Await(kBurst);
  ASSERT_EQ(collector.done, size_t(kBurst));
  EXPECT_EQ(collector.errors, 0u);
  ASSERT_EQ(collector.got.size(), size_t(kBurst));
  for (const auto& [tag, estimate] : collector.got) {
    ASSERT_GE(tag, 1000u);
    const uint64_t i = (tag - 1000) / 7;
    EXPECT_EQ((tag - 1000) % 7, 0u);
    EXPECT_FLOAT_EQ(estimate, 10.0f + float(i) + 0.5f) << "tag " << tag;
  }
  EXPECT_EQ(channel.pending(), 0u);
  channel.Close();
}

TEST_F(ChannelFixture, CallManyShipsWholeBurstAsOneWrite) {
  ClientChannel channel(ChannelCfg());
  ASSERT_TRUE(channel.Connect().ok());

  const int kBurst = 16;
  Collector collector;
  std::vector<SelNetServer::Submission> batch;
  for (int i = 0; i < kBurst; ++i) {
    SelNetServer::Submission s;
    s.req.x = {float(i), 1.0f, 0.0f, 0.0f};
    s.req.thresholds = {0.25f};
    s.req.tag = uint64_t(i + 1);
    s.done = collector.Make();
    batch.push_back(std::move(s));
  }
  channel.CallMany(std::move(batch));
  collector.Await(kBurst);
  ASSERT_EQ(collector.done, size_t(kBurst));
  EXPECT_EQ(collector.errors, 0u);
  for (const auto& [tag, estimate] : collector.got) {
    EXPECT_FLOAT_EQ(estimate, 10.0f + float(tag - 1) + 1.0f + 0.25f)
        << "tag " << tag;
  }
  channel.Close();
}

TEST_F(ChannelFixture, JsonModeServesIdentically) {
  ClientChannel channel(ChannelCfg(WireProto::kJson));
  ASSERT_TRUE(channel.Connect().ok());
  EXPECT_EQ(channel.proto(), WireProto::kJson);

  Collector collector;
  for (int i = 0; i < 8; ++i) {
    EstimateRequest req;
    req.x = {float(i), 0.0f, 0.0f, 0.0f};
    req.thresholds = {0.5f};
    req.tag = uint64_t(i + 1);
    channel.Call(std::move(req), collector.Make());
  }
  collector.Await(8);
  ASSERT_EQ(collector.done, 8u);
  EXPECT_EQ(collector.errors, 0u);
  for (const auto& [tag, estimate] : collector.got) {
    EXPECT_FLOAT_EQ(estimate, 10.0f + float(tag - 1) + 0.5f);
  }
  channel.Close();
}

TEST_F(ChannelFixture, CallWithoutConnectionFailsFastUnavailable) {
  ClientChannel channel(ChannelCfg());
  // Never connected: the completion fires immediately from this thread with
  // the retryable taxonomy code.
  EstimateRequest req;
  req.x = {0.0f, 0.0f, 0.0f, 0.0f};
  req.thresholds = {0.5f};
  req.tag = 3;
  bool fired = false;
  channel.Call(std::move(req),
               [&](EstimateResponse resp, std::exception_ptr error) {
                 fired = true;
                 EXPECT_EQ(resp.tag, 3u);
                 ASSERT_TRUE(error);
                 try {
                   std::rethrow_exception(error);
                 } catch (const RemoteError& e) {
                   EXPECT_EQ(e.code(), util::StatusCode::kUnavailable);
                 } catch (...) {
                   ADD_FAILURE() << "expected RemoteError";
                 }
               });
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace selnet::serve
