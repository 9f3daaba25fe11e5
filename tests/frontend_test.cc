#include "serve/frontend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/selnet_ct.h"
#include "data/synthetic.h"
#include "serve/admission.h"
#include "serve/update_pipeline.h"
#include "serve/wire.h"
#include "util/backoff.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "serve_await.h"

namespace selnet::serve {
namespace {

using tensor::Matrix;

// ------------------------------------------------------------- wire codec ---

TEST(WireTest, RequestRoundTripsBitIdentically) {
  EstimateRequest req;
  req.model = "route-a";
  req.tag = 77;
  util::Rng rng(3);
  for (int i = 0; i < 16; ++i) req.x.push_back(float(rng.Uniform(-3.0, 3.0)));
  for (int i = 0; i < 5; ++i) req.thresholds.push_back(float(rng.Uniform()));

  EstimateRequest parsed;
  ASSERT_TRUE(ParseRequestLine(SerializeRequest(req), &parsed).ok());
  EXPECT_EQ(parsed.model, req.model);
  EXPECT_EQ(parsed.tag, req.tag);
  ASSERT_EQ(parsed.x.size(), req.x.size());
  for (size_t i = 0; i < req.x.size(); ++i) {
    EXPECT_EQ(parsed.x[i], req.x[i]) << "x[" << i << "]";  // Bit-exact.
  }
  ASSERT_EQ(parsed.thresholds.size(), req.thresholds.size());
  for (size_t i = 0; i < req.thresholds.size(); ++i) {
    EXPECT_EQ(parsed.thresholds[i], req.thresholds[i]);
  }
}

TEST(WireTest, DeadlineBudgetPastTheClockRangeNeverExpires) {
  // 1e13 ms is ~317 years: as nanoseconds it overflows the steady clock, so
  // the budget saturates to a deadline that never expires instead.
  EstimateRequest forever;
  ASSERT_TRUE(ParseRequestLine(
                  "{\"x\":[1],\"thresholds\":[0.5],\"deadline_ms\":1e13}",
                  &forever)
                  .ok());
  EXPECT_EQ(forever.deadline, std::chrono::steady_clock::time_point::max());
  // A non-positive budget is still already expired.
  EstimateRequest expired;
  ASSERT_TRUE(ParseRequestLine(
                  "{\"x\":[1],\"thresholds\":[0.5],\"deadline_ms\":-1}",
                  &expired)
                  .ok());
  ASSERT_TRUE(expired.has_deadline());
  EXPECT_LE(expired.deadline, std::chrono::steady_clock::now());
}

TEST(WireTest, ResponseRoundTripsBitIdentically) {
  EstimateResponse resp;
  resp.model = "m";
  resp.version = 9;
  resp.cache_hits = 2;
  resp.fast_path = true;
  resp.tag = 5;
  resp.estimates = {1.5f, 3.14159274f, 1e-30f, 123456.789f};

  EstimateResponse parsed;
  ASSERT_TRUE(ParseResponseLine(SerializeResponse(resp), &parsed).ok());
  EXPECT_EQ(parsed.model, resp.model);
  EXPECT_EQ(parsed.version, resp.version);
  EXPECT_EQ(parsed.cache_hits, resp.cache_hits);
  EXPECT_EQ(parsed.fast_path, resp.fast_path);
  EXPECT_EQ(parsed.tag, resp.tag);
  ASSERT_EQ(parsed.estimates.size(), resp.estimates.size());
  for (size_t i = 0; i < resp.estimates.size(); ++i) {
    EXPECT_EQ(parsed.estimates[i], resp.estimates[i]);
  }
}

TEST(WireTest, MalformedLinesAreRejectedWithoutCrashing) {
  EstimateRequest req;
  const char* bad[] = {
      "",
      "not json",
      "{",
      "{}",
      "[1,2,3]",
      "{\"x\":[1,2]}",                          // Missing thresholds.
      "{\"thresholds\":[0.5]}",                 // Missing x.
      "{\"x\":[],\"thresholds\":[0.5]}",        // Empty x.
      "{\"x\":[1],\"thresholds\":[]}",          // Empty thresholds.
      "{\"x\":[1],\"thresholds\":[0.5]",        // Unterminated object.
      "{\"x\":[1],\"thresholds\":[0.5]} junk",  // Trailing bytes.
      "{\"x\":[1],\"thresholds\":[\"a\"]}",     // Wrong element type.
      "{\"x\":[1],\"thresholds\":[0.5],\"bogus\":1}",  // Unknown field.
      "{\"x\":[1],\"thresholds\":[0.5],\"tag\":-3}",   // Negative tag.
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseRequestLine(line, &req).ok()) << line;
  }
}

TEST(WireTest, BestEffortTagRecoveryFromMalformedLines) {
  EXPECT_EQ(ExtractTagBestEffort("{\"x\":[1],\"tag\": 42, junk"), 42u);
  EXPECT_EQ(ExtractTagBestEffort("{\"tag\":7}"), 7u);
  EXPECT_EQ(ExtractTagBestEffort("no tag here"), 0u);
  EXPECT_EQ(ExtractTagBestEffort("{\"tag\":\"string\"}"), 0u);
  EXPECT_EQ(ExtractTagBestEffort(""), 0u);
}

TEST(WireTest, ErrorReplyCarriesMessageAndTag) {
  std::string line = SerializeError("no route named 'x'", 42);
  EstimateResponse resp;
  util::Status st = ParseResponseLine(line, &resp);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("no route named"), std::string::npos);
}

// ------------------------------------------------------------ net helpers ---

// Cheap deterministic servable (no training): estimate = bias + sum(x) + t.
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

// -------------------------------------------------- frontend happy + fail ---

class FrontendFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<SelNetServer>(CheapServerConfig());
    server_->Publish(std::make_shared<AffineEstimator>(10.0f));
    frontend_ = std::make_unique<NetFrontend>(FrontendConfig{}, server_.get());
    ASSERT_TRUE(frontend_->status().ok())
        << frontend_->status().ToString();
    ASSERT_TRUE(client_.Connect("127.0.0.1", frontend_->port()).ok());
  }

  void TearDown() override {
    client_.Close();
    frontend_.reset();  // Frontend drains before the server dies.
    server_.reset();
  }

  std::unique_ptr<SelNetServer> server_;
  std::unique_ptr<NetFrontend> frontend_;
  NetClient client_;
};

TEST_F(FrontendFixture, RoundTripMatchesInProcessSubmitBitIdentically) {
  util::Rng rng(11);
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

TEST_F(FrontendFixture, MalformedJsonGetsErrorReplyAndConnectionSurvives) {
  ASSERT_TRUE(client_.SendRaw("this is not json\n").ok());
  util::Result<std::string> reply = client_.ReadLine();
  ASSERT_TRUE(reply.ok());
  EXPECT_NE(reply.ValueOrDie().find("\"error\""), std::string::npos);

  // A malformed line with a recoverable tag gets the tag echoed, so a
  // pipelining client can still correlate the failure.
  ASSERT_TRUE(client_
                  .SendRaw("{\"x\":[1],\"thresholds\":[0.5],\"tag\":9,"
                           "\"bogus\":1}\n")
                  .ok());
  util::Result<std::string> tagged = client_.ReadLine();
  ASSERT_TRUE(tagged.ok());
  EXPECT_NE(tagged.ValueOrDie().find("\"error\""), std::string::npos);
  EXPECT_NE(tagged.ValueOrDie().find("\"tag\":9"), std::string::npos);

  // Same connection still serves a valid request afterwards.
  EstimateRequest req;
  req.x = {0.0f, 0.0f, 0.0f, 0.0f};
  req.thresholds = {1.0f};
  util::Result<ClientReply> ok = client_.Call({Command::kEstimate, req});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FLOAT_EQ(ok.ValueOrDie().estimate.estimates[0], 11.0f);
  EXPECT_GE(frontend_->Stats().parse_errors, 1u);

  // Pipelined: tagged estimates, a malformed line and an admin line in ONE
  // write — they decode in one read round. Every line gets exactly one reply
  // carrying its tag, and the estimates are bit-equal to in-process answers.
  util::Rng rng(5);
  std::vector<EstimateRequest> reqs;
  std::string burst;
  for (uint64_t tag = 101; tag <= 106; ++tag) {
    EstimateRequest r;
    for (int j = 0; j < 4; ++j) r.x.push_back(float(rng.Uniform()));
    r.thresholds = {float(rng.Uniform()), float(rng.Uniform())};
    r.tag = tag;
    burst += SerializeRequest(r) + "\n";
    reqs.push_back(std::move(r));
    if (tag == 103) burst += "{\"x\":[1],\"tag\":200,\"nope\":true}\n";
  }
  burst += "{\"cmd\":\"stats\",\"tag\":300}\n";
  ASSERT_TRUE(client_.SendRaw(burst).ok());
  std::map<uint64_t, std::string> replies;
  for (size_t i = 0; i < reqs.size() + 2; ++i) {
    util::Result<std::string> line = client_.ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    uint64_t tag = ExtractTagBestEffort(line.ValueOrDie());
    EXPECT_TRUE(replies.emplace(tag, line.ValueOrDie()).second)
        << "second reply for tag " << tag;
  }
  client_.set_recv_timeout_ms(100);
  EXPECT_EQ(client_.ReadLine().status().code(),
            util::StatusCode::kDeadlineExceeded)
      << "a line got more than one reply";
  EXPECT_NE(replies[200].find("\"error\""), std::string::npos);
  EXPECT_NE(replies[300].find("\"stats\""), std::string::npos);
  for (const EstimateRequest& r : reqs) {
    EstimateResponse wire;
    ASSERT_TRUE(ParseResponseLine(replies[r.tag], &wire).ok())
        << replies[r.tag];
    EstimateResponse direct = Await(*server_, r);
    ASSERT_EQ(wire.estimates.size(), direct.estimates.size());
    for (size_t k = 0; k < direct.estimates.size(); ++k) {
      EXPECT_EQ(wire.estimates[k], direct.estimates[k])
          << "tag " << r.tag << " threshold " << k;
    }
  }
}

TEST_F(FrontendFixture, UnknownRouteGetsErrorReplyAndConnectionSurvives) {
  EstimateRequest req;
  req.model = "never-published";
  req.x = {0.0f, 0.0f, 0.0f, 0.0f};
  req.thresholds = {1.0f};
  util::Result<ClientReply> bad = client_.Call({Command::kEstimate, req});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("never-published"), std::string::npos);

  req.model.clear();
  util::Result<ClientReply> ok = client_.Call({Command::kEstimate, req});
  ASSERT_TRUE(ok.ok());
  EXPECT_GE(frontend_->Stats().request_errors, 1u);
}

TEST_F(FrontendFixture, WrongDimensionalityGetsErrorReply) {
  EstimateRequest req;
  req.x = {1.0f, 2.0f};  // Server dim is 4.
  req.thresholds = {0.5f};
  util::Result<ClientReply> bad = client_.Call({Command::kEstimate, req});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("dim"), std::string::npos);
}

TEST(FrontendLimitsTest, OversizedPayloadIsRejectedThenClosed) {
  SelNetServer server(CheapServerConfig());
  server.Publish(std::make_shared<AffineEstimator>(0.0f));
  FrontendConfig fcfg;
  fcfg.max_line_bytes = 4096;
  NetFrontend frontend(fcfg, &server);
  ASSERT_TRUE(frontend.status().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", frontend.port()).ok());

  // A single line far past the cap (never sending its newline would also
  // trip the no-newline guard; this exercises the framed-line path).
  std::string huge = "{\"x\":[";
  while (huge.size() < 3 * fcfg.max_line_bytes) huge += "0.125,";
  huge += "0.125],\"thresholds\":[0.5]}\n";
  ASSERT_TRUE(client.SendRaw(huge).ok());
  util::Result<std::string> reply = client.ReadLine();
  ASSERT_TRUE(reply.ok());
  EXPECT_NE(reply.ValueOrDie().find("exceeds"), std::string::npos);
  // The server closes after delivering the error.
  util::Result<std::string> eof = client.ReadLine();
  EXPECT_FALSE(eof.ok());
  EXPECT_GE(frontend.Stats().oversized, 1u);

  // The frontend itself is fine: a fresh connection serves.
  NetClient again;
  ASSERT_TRUE(again.Connect("127.0.0.1", frontend.port()).ok());
  EstimateRequest req;
  req.x = {0.0f, 0.0f, 0.0f, 0.0f};
  req.thresholds = {0.5f};
  EXPECT_TRUE(again.Call({Command::kEstimate, req}).ok());
}

TEST(FrontendLimitsTest, ClientDisconnectMidResponseIsHarmless) {
  SelNetServer server(CheapServerConfig());
  server.Publish(std::make_shared<AffineEstimator>(0.0f));
  NetFrontend frontend(FrontendConfig{}, &server);
  ASSERT_TRUE(frontend.status().ok());

  // Fire a burst of requests and vanish before reading any response.
  {
    NetClient rude;
    ASSERT_TRUE(rude.Connect("127.0.0.1", frontend.port()).ok());
    EstimateRequest req;
    req.x = {0.1f, 0.1f, 0.1f, 0.1f};
    req.thresholds = {0.5f};
    std::string burst;
    for (int i = 0; i < 50; ++i) burst += SerializeRequest(req) + "\n";
    ASSERT_TRUE(rude.SendRaw(burst).ok());
    rude.Close();  // Mid-response: completions land on a dead connection.
  }
  server.Drain();  // All submitted work completes against the closed conn.

  // The frontend keeps serving new clients.
  NetClient polite;
  ASSERT_TRUE(polite.Connect("127.0.0.1", frontend.port()).ok());
  EstimateRequest req;
  req.x = {0.0f, 0.0f, 0.0f, 0.0f};
  req.thresholds = {1.0f};
  util::Result<ClientReply> ok = polite.Call({Command::kEstimate, req});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FLOAT_EQ(ok.ValueOrDie().estimate.estimates[0], 1.0f);
}

TEST(FrontendLimitsTest, GracefulDrainAnswersAcceptedRequests) {
  SelNetServer server(CheapServerConfig());
  server.Publish(std::make_shared<AffineEstimator>(3.0f));
  auto frontend = std::make_unique<NetFrontend>(FrontendConfig{}, &server);
  ASSERT_TRUE(frontend->status().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", frontend->port()).ok());

  EstimateRequest req;
  req.x = {0.0f, 0.0f, 0.0f, 0.0f};
  req.thresholds = {1.0f};
  std::string burst;
  for (int i = 0; i < 20; ++i) burst += SerializeRequest(req) + "\n";
  ASSERT_TRUE(client.SendRaw(burst).ok());

  // Stop concurrently with the in-flight burst: every accepted request must
  // still be answered before the socket closes.
  std::thread stopper([&] { frontend->Stop(); });
  size_t answered = 0;
  for (;;) {
    util::Result<std::string> line = client.ReadLine();
    if (!line.ok()) break;  // Clean close after the drain.
    EstimateResponse resp;
    ASSERT_TRUE(ParseResponseLine(line.ValueOrDie(), &resp).ok());
    EXPECT_FLOAT_EQ(resp.estimates[0], 4.0f);
    ++answered;
  }
  stopper.join();
  // The loop may not have read all 20 lines off the socket before Stop; the
  // ones it DID submit must all have been answered and flushed.
  FrontendStats stats = frontend->Stats();
  EXPECT_EQ(answered, stats.requests);
  EXPECT_EQ(stats.responses, stats.requests);
}

TEST(FrontendLimitsTest, BackpressureCapsPerConnectionInflight) {
  SelNetServer server(CheapServerConfig());
  server.Publish(std::make_shared<AffineEstimator>(0.0f));
  FrontendConfig fcfg;
  fcfg.max_inflight_per_conn = 4;
  NetFrontend frontend(fcfg, &server);
  ASSERT_TRUE(frontend.status().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", frontend.port()).ok());

  EstimateRequest req;
  req.x = {0.1f, 0.1f, 0.1f, 0.1f};
  req.thresholds = {0.5f};
  std::string burst;
  const int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) burst += SerializeRequest(req) + "\n";
  ASSERT_TRUE(client.SendRaw(burst).ok());
  // Every request is eventually answered despite the cap throttling reads.
  for (int i = 0; i < kBurst; ++i) {
    util::Result<std::string> line = client.ReadLine();
    ASSERT_TRUE(line.ok()) << "response " << i;
  }
  EXPECT_GE(frontend.Stats().backpressure_stalls, 1u);
}

// ----------------------------------------------------- admin plane (wire) ---

TEST(AdminPlaneTest, StatsReplyCarriesPerStagePercentiles) {
  ServerConfig scfg = CheapServerConfig();
  scfg.trace_sample_every = 1;  // Trace every request...
  scfg.slow_trace_ms = 0.0;     // ...and retain every span in the slow ring.
  SelNetServer server(scfg);
  server.Publish(std::make_shared<AffineEstimator>(1.0f));
  NetFrontend frontend(FrontendConfig{}, &server);
  ASSERT_TRUE(frontend.status().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", frontend.port()).ok());

  EstimateRequest req;
  req.x = {0.0f, 0.0f, 0.0f, 0.0f};
  req.thresholds = {0.5f};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.Call({Command::kEstimate, req}).ok())
        << "request " << i;
  }

  util::Result<ClientReply> reply =
      client.Call({Command::kStats, {}, {"stats", 31}});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const std::string& line = reply.ValueOrDie().body;
  EXPECT_NE(line.find("\"stats\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"tag\":31"), std::string::npos) << line;
  EXPECT_NE(line.find("\"requests\":8"), std::string::npos) << line;
  // Every stage the request actually crossed reports merged percentiles.
  for (const char* stage :
       {"\"decode\"", "\"route\"", "\"queue\"", "\"predict\"", "\"encode\""}) {
    EXPECT_NE(line.find(stage), std::string::npos) << stage << " in " << line;
  }
  EXPECT_NE(line.find("\"p50_ms\""), std::string::npos);
  EXPECT_NE(line.find("\"p99_ms\""), std::string::npos);

  // The decode..predict stages were observed for all 8 traced requests.
  StatsSnapshot snap = frontend.FleetSnapshot();
  ASSERT_EQ(snap.stage_hists.size(), kNumStages);
  EXPECT_EQ(snap.stage_hists[size_t(Stage::kDecode)].count, 8u);
  EXPECT_EQ(snap.stage_hists[size_t(Stage::kPredict)].count, 8u);
  // Encode is recorded AFTER the response is serialized: the 8th response
  // was read back, so at least the first 7 have landed.
  EXPECT_GE(snap.stage_hists[size_t(Stage::kEncode)].count, 7u);
  EXPECT_EQ(snap.traced, 8u);

  // {"cmd":"slow"} dumps the retained spans (threshold 0 keeps them all).
  util::Result<ClientReply> slow =
      client.Call({Command::kSlow, {}, {"slow", 7}});
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  const std::string& spans = slow.ValueOrDie().body;
  EXPECT_NE(spans.find("\"slow\":["), std::string::npos);
  EXPECT_NE(spans.find("\"total_ms\""), std::string::npos);
  EXPECT_NE(spans.find("\"tag\":7"), std::string::npos);

  EXPECT_GE(frontend.Stats().admin_requests, 2u);
}

TEST(AdminPlaneTest, BadAdminLinesGetErrorRepliesAndConnectionSurvives) {
  SelNetServer server(CheapServerConfig());
  server.Publish(std::make_shared<AffineEstimator>(0.0f));
  NetFrontend frontend(FrontendConfig{}, &server);
  ASSERT_TRUE(frontend.status().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", frontend.port()).ok());

  // Unknown command: a well-formed admin line naming no registry command.
  AdminRequest bogus;
  bogus.cmd = "bogus";
  bogus.tag = 3;
  ASSERT_TRUE(client.SendRaw(SerializeAdminRequest(bogus) + "\n").ok());
  util::Result<std::string> unknown = client.ReadLine();
  ASSERT_TRUE(unknown.ok());
  EXPECT_NE(unknown.ValueOrDie().find("\"error\""), std::string::npos);
  EXPECT_NE(unknown.ValueOrDie().find("unknown admin cmd"), std::string::npos);
  EXPECT_NE(unknown.ValueOrDie().find("\"tag\":3"), std::string::npos);

  // Malformed admin line (looks like admin, fails strict parse).
  ASSERT_TRUE(
      client.SendRaw("{\"cmd\":\"stats\",\"junk\":1,\"tag\":5}\n").ok());
  util::Result<std::string> mal = client.ReadLine();
  ASSERT_TRUE(mal.ok());
  EXPECT_NE(mal.ValueOrDie().find("\"error\""), std::string::npos);
  EXPECT_NE(mal.ValueOrDie().find("\"tag\":5"), std::string::npos);

  // Same connection still serves estimates and admin afterwards.
  EstimateRequest req;
  req.x = {0.0f, 0.0f, 0.0f, 0.0f};
  req.thresholds = {1.0f};
  ASSERT_TRUE(client.Call({Command::kEstimate, req}).ok());
  util::Result<ClientReply> stats = client.Call({Command::kStats});
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.ValueOrDie().body.find("\"stats\""), std::string::npos);
}

TEST(AdminPlaneTest, FleetStatsMergeHistogramsAcrossShards) {
  ShardedConfig scfg;
  scfg.server = CheapServerConfig(4);
  scfg.server.trace_sample_every = 2;  // Sampled, not exhaustive.
  scfg.num_shards = 2;
  scfg.threads_per_shard = 1;
  ShardedRegistry registry(scfg);
  registry.Publish("a", std::make_shared<AffineEstimator>(0.0f));
  std::string other;
  for (int i = 0; i < 64 && other.empty(); ++i) {
    std::string cand = "alt" + std::to_string(i);
    if (registry.ShardOf(cand) != registry.ShardOf("a")) other = cand;
  }
  ASSERT_FALSE(other.empty());
  registry.Publish(other, std::make_shared<AffineEstimator>(5.0f));

  NetFrontend frontend(FrontendConfig{}, &registry);
  ASSERT_TRUE(frontend.status().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", frontend.port()).ok());

  EstimateRequest req;
  req.x = {0.1f, 0.1f, 0.1f, 0.1f};
  req.thresholds = {0.5f};
  for (int i = 0; i < 10; ++i) {
    req.model = i % 2 == 0 ? "a" : other;
    ASSERT_TRUE(client.Call({Command::kEstimate, req}).ok())
        << "request " << i;
  }
  registry.Drain();

  // The merged fleet snapshot pools both shards' latency histograms: the
  // bucket counts sum to the fleet-wide request count — not a worst-shard
  // summary.
  StatsSnapshot fleet = frontend.FleetSnapshot();
  EXPECT_EQ(fleet.requests, 10u);
  EXPECT_EQ(fleet.latency_hist.count, 10u);
  StatsSnapshot a = registry.shard(0).stats().Snapshot();
  StatsSnapshot b = registry.shard(1).stats().Snapshot();
  EXPECT_EQ(a.latency_hist.count + b.latency_hist.count, 10u);
  EXPECT_GT(a.latency_hist.count, 0u);
  EXPECT_GT(b.latency_hist.count, 0u);

  util::Result<ClientReply> reply = client.Call({Command::kStats});
  ASSERT_TRUE(reply.ok());
  const std::string& body = reply.ValueOrDie().body;
  EXPECT_NE(body.find("\"requests\":10"), std::string::npos) << body;
  EXPECT_NE(body.find("\"stages\""), std::string::npos);
}

// ------------------------------- sharded serving over the wire + updates ---

class NetShardFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticSpec spec;
    spec.n = 400;
    spec.dim = 4;
    db_ = std::make_unique<data::Database>(data::GenerateMixture(spec),
                                           data::Metric::kEuclidean);
    data::WorkloadSpec wspec;
    wspec.num_queries = 20;
    wspec.w = 5;
    wspec.max_sel_fraction = 0.2;
    wl_ = data::GenerateWorkload(*db_, wspec);
    ctx_.db = db_.get();
    ctx_.workload = &wl_;
    ctx_.epochs = 3;
    cfg_.input_dim = 4;
    cfg_.tmax = wl_.tmax;
    cfg_.num_control = 5;
    cfg_.latent_dim = 2;
    cfg_.ae_hidden = 12;
    cfg_.tau_hidden = 12;
    cfg_.p_hidden = 16;
    cfg_.embed_h = 4;
    cfg_.ae_pretrain_epochs = 1;
    model_ = std::make_shared<core::SelNetCt>(cfg_);
    model_->Fit(ctx_);

    ShardedConfig scfg;
    scfg.server = CheapServerConfig(4);
    scfg.num_shards = 2;
    scfg.threads_per_shard = 1;
    registry_ = std::make_unique<ShardedRegistry>(scfg);
    frontend_ =
        std::make_unique<NetFrontend>(FrontendConfig{}, registry_.get());
    ASSERT_TRUE(frontend_->status().ok());
  }

  void TearDown() override {
    frontend_.reset();
    registry_.reset();
  }

  /// A route name owned by a different shard than `other`.
  std::string RouteOnOtherShard(const std::string& other) {
    for (int i = 0; i < 64; ++i) {
      std::string cand = "alt" + std::to_string(i);
      if (registry_->ShardOf(cand) != registry_->ShardOf(other)) return cand;
    }
    return "";
  }

  std::unique_ptr<data::Database> db_;
  data::Workload wl_;
  eval::TrainContext ctx_;
  core::SelNetConfig cfg_;
  std::shared_ptr<core::SelNetCt> model_;
  std::unique_ptr<ShardedRegistry> registry_;
  std::unique_ptr<NetFrontend> frontend_;
};

TEST_F(NetShardFixture, WireMatchesInProcessAcrossShards) {
  registry_->Publish("a", model_);
  std::string other = RouteOnOtherShard("a");
  ASSERT_FALSE(other.empty());
  registry_->Publish(other, model_);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", frontend_->port()).ok());
  std::vector<float> ts;
  for (int i = 1; i <= 5; ++i) ts.push_back(wl_.tmax * float(i) / 5.0f);
  for (const std::string& route : {std::string("a"), other}) {
    for (size_t q = 0; q < 5; ++q) {
      EstimateRequest req =
          EstimateRequest::Sweep(wl_.queries.row(q), 4, ts, route);
      util::Result<ClientReply> wire = client.Call({Command::kEstimate, req});
      ASSERT_TRUE(wire.ok()) << wire.status().ToString();
      EstimateResponse direct = Await(*registry_, req);
      const EstimateResponse& remote = wire.ValueOrDie().estimate;
      ASSERT_EQ(remote.estimates.size(), direct.estimates.size());
      for (size_t k = 0; k < direct.estimates.size(); ++k) {
        EXPECT_EQ(remote.estimates[k], direct.estimates[k])
            << route << " q" << q << " t" << k;
      }
    }
  }
}

TEST_F(NetShardFixture, SweepStaysMonotoneAcrossHotSwapOnAnotherShard) {
  registry_->Publish("primary", model_);
  std::string other = RouteOnOtherShard("primary");
  ASSERT_FALSE(other.empty());
  registry_->Publish(other, model_);

  std::vector<float> ts;
  for (int i = 1; i <= 8; ++i) ts.push_back(wl_.tmax * float(i) / 8.0f);

  std::atomic<bool> stop{false};
  std::atomic<size_t> violations{0}, failures{0}, sweeps{0};
  std::thread sweeper([&] {
    NetClient client;
    if (!client.Connect("127.0.0.1", frontend_->port()).ok()) {
      failures.fetch_add(1);
      return;
    }
    util::Rng rng(5);
    while (!stop.load()) {
      size_t q = size_t(rng.UniformInt(0, int64_t(wl_.queries.rows()) - 1));
      util::Result<ClientReply> resp = client.Call(
          {Command::kEstimate,
           EstimateRequest::Sweep(wl_.queries.row(q), 4, ts, "primary")});
      if (!resp.ok()) {
        failures.fetch_add(1);
        continue;
      }
      const auto& est = resp.ValueOrDie().estimate.estimates;
      for (size_t i = 1; i < est.size(); ++i) {
        if (est[i] < est[i - 1]) violations.fetch_add(1);
      }
      sweeps.fetch_add(1);
    }
  });

  // Hot-swap storm on BOTH shards: the sweeper's route republishes (its
  // estimates may jump between versions but each sweep stays monotone), and
  // the OTHER shard swaps too — proving a foreign shard's swap cannot
  // corrupt this shard's in-flight sweeps or cache keys.
  for (int swap = 0; swap < 6; ++swap) {
    registry_->Publish(swap % 2 == 0 ? other : "primary",
                       model_->CloneServable());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  util::Backoff poll({/*base_ms=*/1.0, /*cap_ms=*/20.0}, /*seed=*/7);
  while (sweeps.load() < 10) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(poll.NextDelayMs()));
  }
  stop.store(true);
  sweeper.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GE(sweeps.load(), 10u);
}

TEST_F(NetShardFixture, NetworkStormWithLivePipelineFailsNoQuery) {
  // The PR 4 publish storm, extended end to end: wire -> router -> shard ->
  // batched kernel, while the live-update pipeline retrains and republishes
  // the served route. Zero failed queries, zero monotonicity violations.
  const std::string route = "live";
  registry_->Publish(route, model_);
  UpdatePipelineConfig ucfg;
  ucfg.model_name = route;
  ucfg.policy.mae_drift_fraction = 0.0;
  ucfg.policy.max_epochs = 1;
  ucfg.policy.patience = 1;
  LiveUpdatePipeline& pipeline =
      registry_->AttachUpdatePipeline(ucfg, *db_, wl_);

  std::vector<float> ts;
  for (int i = 1; i <= 6; ++i) ts.push_back(wl_.tmax * float(i) / 6.0f);

  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0}, violations{0}, answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      NetClient client;
      if (!client.Connect("127.0.0.1", frontend_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      util::Rng rng(600 + c);
      while (!stop.load()) {
        size_t q =
            size_t(rng.UniformInt(0, int64_t(wl_.queries.rows()) - 1));
        // One client sweeps, one sends scalars.
        EstimateRequest req =
            c == 0 ? EstimateRequest::Sweep(wl_.queries.row(q), 4, ts, route)
                   : EstimateRequest::Point(wl_.queries.row(q), 4,
                                            wl_.tmax * float(rng.Uniform()),
                                            route);
        util::Result<ClientReply> resp = client.Call({Command::kEstimate, req});
        if (!resp.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const auto& est = resp.ValueOrDie().estimate.estimates;
        for (size_t i = 0; i < est.size(); ++i) {
          if (!std::isfinite(est[i])) failures.fetch_add(1);
          if (i > 0 && est[i] < est[i - 1]) violations.fetch_add(1);
        }
        answered.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  // Feed drift-tripping ops until >= 2 republishes have hot-swapped the
  // served route mid-traffic.
  const uint64_t kWantPublishes = 2;
  util::Stopwatch deadline;
  size_t fed = 0;
  while (pipeline.Snapshot().publishes < kWantPublishes &&
         deadline.ElapsedSeconds() < 60.0) {
    core::UpdateOp op;
    op.is_insert = true;
    const float* hot =
        wl_.queries.row(wl_.valid[fed % wl_.valid.size()].query_id);
    for (int i = 0; i < 40; ++i) op.vectors.emplace_back(hot, hot + 4);
    if (pipeline.Submit(op)) ++fed;
    pipeline.Flush();
  }
  util::Backoff poll({/*base_ms=*/1.0, /*cap_ms=*/20.0}, /*seed=*/7);
  while (answered.load() < 20 && deadline.ElapsedSeconds() < 60.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(poll.NextDelayMs()));
  }
  stop.store(true);
  for (auto& th : clients) th.join();
  registry_->Drain();

  UpdatePipelineState state = pipeline.Snapshot();
  EXPECT_GE(state.publishes, kWantPublishes);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GE(answered.load(), 20u);
  EXPECT_EQ(frontend_->Stats().request_errors, 0u);
}

// -------------------------------------------------- overload on the wire ---

/// Predict parks until Release(): pins the backend saturated so shed and
/// deadline replies can be observed on the wire deterministically.
class WireBlockingEstimator : public eval::Estimator {
 public:
  std::string Name() const override { return "WireBlocking"; }
  bool IsConsistent() const override { return true; }
  void Fit(const eval::TrainContext&) override {}
  Matrix Predict(const Matrix& x, const Matrix&) override {
    started_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return released_; });
    Matrix y(x.rows(), 1);
    for (size_t i = 0; i < x.rows(); ++i) y(i, 0) = 2.0f;
    return y;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }
  size_t started() const { return started_.load(std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  std::atomic<size_t> started_{0};
};

TEST(FrontendOverloadTest, ShedAtDecodeWritesOneTypedErrorLine) {
  ServerConfig scfg = CheapServerConfig();
  scfg.admission.enabled = true;
  scfg.admission.max_inflight = 1;
  SelNetServer server(scfg);
  auto blocking = std::make_shared<WireBlockingEstimator>();
  server.Publish(blocking);
  NetFrontend frontend(FrontendConfig{}, &server);
  ASSERT_TRUE(frontend.status().ok());

  NetClient occupant, shed;
  ASSERT_TRUE(occupant.Connect("127.0.0.1", frontend.port()).ok());
  ASSERT_TRUE(shed.Connect("127.0.0.1", frontend.port()).ok());

  // The occupant's request takes the only admission ticket and parks inside
  // Predict; its reply cannot arrive until Release().
  EstimateRequest holder;
  holder.x = {1.0f, 2.0f, 3.0f, 4.0f};
  holder.thresholds = {0.5f};
  holder.tag = 1;
  ASSERT_TRUE(occupant.SendRaw(SerializeRequest(holder) + "\n").ok());
  while (blocking->started() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The next decode sheds synchronously on the loop thread: one COMPLETE
  // error line with the machine-readable reason and the client's tag —
  // ReadLine only returns on '\n', so a full line proves no partial write.
  ASSERT_TRUE(
      shed.SendRaw(
              "{\"x\":[1,1,1,1],\"thresholds\":[0.5],\"tag\":9}\n")
          .ok());
  util::Result<std::string> line = shed.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_NE(line.ValueOrDie().find("\"code\":\"queue_full\""),
            std::string::npos)
      << line.ValueOrDie();
  EXPECT_NE(line.ValueOrDie().find("\"tag\":9"), std::string::npos);
  EstimateResponse parsed;
  util::Status st = ParseResponseLine(line.ValueOrDie(), &parsed);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kUnavailable) << st.ToString();

  // The typed-status mapping also works end to end through Call.
  util::Result<ClientReply> rt = shed.Call({Command::kEstimate, holder});
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.status().code(), util::StatusCode::kUnavailable);

  // The occupant was never harmed: its answer arrives after release.
  blocking->Release();
  util::Result<std::string> ok_line = occupant.ReadLine();
  ASSERT_TRUE(ok_line.ok());
  EXPECT_EQ(ok_line.ValueOrDie().find("\"error\""), std::string::npos)
      << ok_line.ValueOrDie();
  occupant.Close();
  shed.Close();
  frontend.Stop();
}

TEST(FrontendOverloadTest, DeadlineExpiredInQueueWritesTypedErrorLine) {
  util::ThreadPool pool(1);  // One worker: queued batches wait their turn.
  ServerConfig scfg = CheapServerConfig();
  scfg.scheduler.pool = &pool;
  SelNetServer server(scfg);
  auto blocking = std::make_shared<WireBlockingEstimator>();
  server.Publish(blocking);
  NetFrontend frontend(FrontendConfig{}, &server);
  ASSERT_TRUE(frontend.status().ok());

  NetClient occupant, doomed;
  ASSERT_TRUE(occupant.Connect("127.0.0.1", frontend.port()).ok());
  ASSERT_TRUE(doomed.Connect("127.0.0.1", frontend.port()).ok());

  ASSERT_TRUE(
      occupant
          .SendRaw("{\"x\":[1,1,1,1],\"thresholds\":[0.5],\"tag\":1}\n")
          .ok());
  while (blocking->started() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // This request's 20 ms budget is anchored at decode; it expires while its
  // batch waits behind the parked one, and the row is dropped AT the batch
  // boundary — the typed reply proves it never reached Predict.
  ASSERT_TRUE(doomed
                  .SendRaw("{\"x\":[2,2,2,2],\"thresholds\":[0.5],"
                           "\"deadline_ms\":20,\"tag\":7}\n")
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  blocking->Release();

  util::Result<std::string> line = doomed.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_NE(line.ValueOrDie().find("\"code\":\"deadline_exceeded\""),
            std::string::npos)
      << line.ValueOrDie();
  EXPECT_NE(line.ValueOrDie().find("\"tag\":7"), std::string::npos);
  EstimateResponse parsed;
  EXPECT_EQ(ParseResponseLine(line.ValueOrDie(), &parsed).code(),
            util::StatusCode::kDeadlineExceeded);

  util::Result<std::string> ok_line = occupant.ReadLine();
  ASSERT_TRUE(ok_line.ok());
  EXPECT_EQ(ok_line.ValueOrDie().find("\"error\""), std::string::npos);

  // A non-positive budget is already expired at decode: typed shed, no
  // compute, connection survives.
  ASSERT_TRUE(doomed
                  .SendRaw("{\"x\":[2,2,2,2],\"thresholds\":[0.5],"
                           "\"deadline_ms\":0,\"tag\":8}\n")
                  .ok());
  line = doomed.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_NE(line.ValueOrDie().find("\"code\":\"deadline_exceeded\""),
            std::string::npos);
  EXPECT_EQ(server.stats().Snapshot().deadline_rows_predicted, 0u);

  occupant.Close();
  doomed.Close();
  frontend.Stop();
  server.Drain();
}

TEST(FrontendOverloadTest, RecvTimeoutAgainstSilentServerIsTyped) {
  // A listener that accepts (at the kernel level) and never replies.
  util::TcpListener silent;
  ASSERT_TRUE(silent.Listen("127.0.0.1", 0).ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", silent.port()).ok());
  client.set_recv_timeout_ms(50);
  ASSERT_TRUE(client.SendRaw("{\"x\":[1],\"thresholds\":[0.5]}\n").ok());

  auto start = std::chrono::steady_clock::now();
  util::Result<std::string> line = client.ReadLine();
  double waited_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), util::StatusCode::kDeadlineExceeded)
      << line.status().ToString();
  EXPECT_GE(waited_ms, 45.0);    // The full budget was honored...
  EXPECT_LT(waited_ms, 5000.0);  // ...and it did not block forever.

  // Timeout is not a connection error: the socket stays usable and a second
  // bounded read times out the same way instead of reporting I/O failure.
  EXPECT_EQ(client.ReadLine().status().code(),
            util::StatusCode::kDeadlineExceeded);
  client.Close();
}

TEST(FrontendOverloadTest, ServerKilledMidRoundtripSurfacesIoError) {
  FrontendConfig fcfg;
  fcfg.drain_timeout_s = 0.05;  // Stop() gives up on the parked response.
  SelNetServer server(CheapServerConfig());
  auto blocking = std::make_shared<WireBlockingEstimator>();
  server.Publish(blocking);
  auto frontend = std::make_unique<NetFrontend>(fcfg, &server);
  ASSERT_TRUE(frontend->status().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", frontend->port()).ok());
  client.set_recv_timeout_ms(5000);  // Upper bound so the test cannot hang.
  ASSERT_TRUE(
      client.SendRaw("{\"x\":[1,1,1,1],\"thresholds\":[0.5],\"tag\":3}\n")
          .ok());
  while (blocking->started() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Kill the server mid-roundtrip: the drain times out, the connection is
  // closed, and the pending read surfaces a distinct I/O error — NOT a
  // recv timeout and NOT a silent hang.
  frontend->Stop();
  util::Result<std::string> line = client.ReadLine();
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), util::StatusCode::kIoError)
      << line.status().ToString();

  client.Close();
  blocking->Release();  // Unblock the worker so teardown can drain.
  frontend.reset();
  server.Drain();
}

}  // namespace
}  // namespace selnet::serve
