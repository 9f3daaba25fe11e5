#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "core/selnet_ct.h"
#include "data/synthetic.h"
#include "eval/estimator.h"
#include "serve/frontend.h"
#include "serve/remote_shard.h"
#include "serve/shard_node.h"
#include "serve/shard_router.h"
#include "serve/state_transfer.h"
#include "serve/update_pipeline.h"
#include "serve/wire.h"
#include "serve/wire_binary.h"
#include "util/backoff.h"
#include "util/crc32.h"
#include "serve_await.h"

/// Fleet invariants (PR 8): R-way replication across local + remote slots,
/// failover that loses nothing when a replica dies mid-traffic, and
/// crash-then-rejoin re-sync that serves bit-identical answers.

namespace selnet::serve {
namespace {

constexpr size_t kDim = 6;

/// One tiny trained SelNet-ct, trained ONCE for the whole suite; tests share
/// its serialized bytes (training dominates test wall-clock otherwise).
class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticSpec spec;
    spec.n = 400;
    spec.dim = kDim;
    db_ = new data::Database(data::GenerateMixture(spec),
                             data::Metric::kEuclidean);
    data::WorkloadSpec wspec;
    wspec.num_queries = 15;
    wspec.w = kDim;
    wspec.max_sel_fraction = 0.2;
    wl_ = new data::Workload(data::GenerateWorkload(*db_, wspec));
    eval::TrainContext ctx;
    ctx.db = db_;
    ctx.workload = wl_;
    ctx.epochs = 4;
    core::SelNetConfig cfg;
    cfg.input_dim = kDim;
    cfg.tmax = wl_->tmax;
    cfg.num_control = 6;
    cfg.latent_dim = 3;
    cfg.ae_hidden = 16;
    cfg.tau_hidden = 20;
    cfg.p_hidden = 24;
    cfg.embed_h = 5;
    cfg.ae_pretrain_epochs = 1;
    model_ = new core::SelNetCt(cfg);
    model_->Fit(ctx);
    auto bytes = core::SaveModelBytes(*model_);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    bytes_ = new std::string(bytes.MoveValueUnsafe());
  }

  static void TearDownTestSuite() {
    delete model_;
    delete bytes_;
    delete wl_;
    delete db_;
    model_ = nullptr;
    bytes_ = nullptr;
    wl_ = nullptr;
    db_ = nullptr;
  }

  static std::vector<float> Query() {
    return std::vector<float>(wl_->queries.row(0), wl_->queries.row(0) + kDim);
  }

  static std::vector<float> SortedThresholds(size_t k) {
    std::vector<float> ts(k);
    for (size_t i = 0; i < k; ++i) {
      ts[i] = wl_->tmax * float(i + 1) / float(k + 1);
    }
    return ts;
  }

  static ShardNodeConfig NodeConfig(uint16_t port = 0) {
    ShardNodeConfig cfg;
    cfg.server.dim = kDim;
    cfg.frontend.port = port;
    cfg.frontend.drain_timeout_s = 0.2;
    cfg.threads = 1;
    return cfg;
  }

  /// Registry: one local shard + one remote node, every route on both.
  static ShardedConfig FleetConfig(uint16_t node_port) {
    ShardedConfig cfg;
    cfg.server.dim = kDim;
    cfg.num_shards = 1;
    cfg.threads_per_shard = 1;
    cfg.replication = 2;
    RemoteShardConfig remote;
    remote.port = node_port;
    remote.recv_timeout_ms = 500;
    remote.admin_timeout_ms = 2000;
    cfg.remotes.push_back(remote);
    cfg.health_interval_ms = 20.0;
    return cfg;
  }

  /// A route name whose ring primary is `slot` (deterministic hash scan).
  static std::string RouteOwnedBy(const ShardedRegistry& reg, size_t slot) {
    for (int i = 0; i < 100000; ++i) {
      std::string route = "route-" + std::to_string(i);
      if (reg.ShardOf(route) == slot) return route;
    }
    ADD_FAILURE() << "no route hashes to slot " << slot;
    return "";
  }

  static bool WaitForHealth(ShardedRegistry& reg, size_t slot,
                            ShardHealth want, double timeout_s = 10.0) {
    util::Backoff poll({/*base_ms=*/2.0, /*cap_ms=*/50.0}, /*seed=*/5);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      if (reg.slot_health(slot) == want) return true;
      reg.NudgeHealth();
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(poll.NextDelayMs()));
    }
    return reg.slot_health(slot) == want;
  }

  static data::Database* db_;
  static data::Workload* wl_;
  static core::SelNetCt* model_;
  static std::string* bytes_;
};

data::Database* FleetTest::db_ = nullptr;
data::Workload* FleetTest::wl_ = nullptr;
core::SelNetCt* FleetTest::model_ = nullptr;
std::string* FleetTest::bytes_ = nullptr;

TEST(HashRingReplicas, DistinctPrimaryFirstAndClamped) {
  HashRing ring(5, 64);
  for (int i = 0; i < 50; ++i) {
    std::string route = "model/" + std::to_string(i);
    std::vector<size_t> reps = ring.ReplicasOf(route, 3);
    ASSERT_EQ(reps.size(), 3u);
    EXPECT_EQ(reps[0], ring.ShardOf(route));
    EXPECT_NE(reps[0], reps[1]);
    EXPECT_NE(reps[0], reps[2]);
    EXPECT_NE(reps[1], reps[2]);
    // Deterministic: same inputs, same placement.
    EXPECT_EQ(reps, ring.ReplicasOf(route, 3));
    // r=1 degenerates to the primary; r past the shard count clamps.
    EXPECT_EQ(ring.ReplicasOf(route, 1),
              std::vector<size_t>{ring.ShardOf(route)});
    EXPECT_EQ(ring.ReplicasOf(route, 99).size(), 5u);
  }
}

TEST_F(FleetTest, RemoteShardServesBitIdenticalSweeps) {
  ShardNode node(NodeConfig());
  ASSERT_TRUE(node.status().ok()) << node.status().ToString();

  // Reference: a pure-local single-shard stack serving the same bytes.
  ShardedConfig local_cfg;
  local_cfg.server.dim = kDim;
  local_cfg.num_shards = 1;
  local_cfg.threads_per_shard = 1;
  ShardedRegistry local(local_cfg);
  auto lv = local.PublishFromBytes("m", *bytes_, "fleet test");
  ASSERT_TRUE(lv.ok()) << lv.status().ToString();

  RemoteShardConfig rcfg;
  rcfg.port = node.port();
  RemoteShard remote(rcfg);
  auto rv = remote.PublishBytes("m", *bytes_);
  ASSERT_TRUE(rv.ok()) << rv.status().ToString();
  ASSERT_TRUE(remote.Connect().ok());

  std::vector<float> q = Query();
  std::vector<float> ts = SortedThresholds(9);
  EstimateRequest req = EstimateRequest::Sweep(q.data(), kDim, ts, "m");
  req.tag = 42;

  std::promise<EstimateResponse> got;
  remote.SubmitWith(req, [&](EstimateResponse&& resp, std::exception_ptr err) {
    if (err) {
      got.set_exception(err);
    } else {
      got.set_value(std::move(resp));
    }
  });
  EstimateResponse over_wire = got.get_future().get();
  EstimateResponse in_process = Await(local, req);

  EXPECT_EQ(over_wire.tag, 42u);  // Internal wire tags never leak out.
  ASSERT_EQ(over_wire.estimates.size(), ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    // Bit-identical across the wire (shortest-round-trip float encoding).
    EXPECT_EQ(over_wire.estimates[i], in_process.estimates[i]) << i;
    if (i > 0) {
      EXPECT_GE(over_wire.estimates[i], over_wire.estimates[i - 1])
          << "sweep monotonicity broken at " << i;
    }
  }
  EXPECT_EQ(remote.pending(), 0u);
}

TEST_F(FleetTest, ReplicaDeathMidBatchLosesNoRequests) {
  auto node = std::make_unique<ShardNode>(NodeConfig());
  ASSERT_TRUE(node->status().ok());

  ShardedRegistry reg(FleetConfig(node->port()));
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kHealthy));

  // A route whose PRIMARY is the remote slot: its traffic rides the wire
  // until the node dies, then must fail over to the local replica.
  std::string route = RouteOwnedBy(reg, 1);
  auto version = reg.PublishFromBytes(route, *bytes_, "fleet test");
  ASSERT_TRUE(version.ok()) << version.status().ToString();

  std::vector<float> q = Query();
  std::vector<float> ts = SortedThresholds(5);
  auto make_req = [&] {
    EstimateRequest req = EstimateRequest::Sweep(q.data(), kDim, ts, route);
    return req;
  };

  // Reference answer, computed before any failure.
  EstimateResponse reference = Await(reg, make_req());
  ASSERT_EQ(reference.estimates.size(), ts.size());

  constexpr size_t kBefore = 10, kInflight = 10, kAfter = 20;
  size_t completed = 0;
  auto check = [&](EstimateResponse resp) {
    ASSERT_EQ(resp.estimates.size(), ts.size());
    for (size_t i = 0; i < ts.size(); ++i) {
      // Same bytes on every replica => the answer does not depend on which
      // replica computed it.
      EXPECT_EQ(resp.estimates[i], reference.estimates[i]);
    }
    ++completed;
  };

  for (size_t i = 0; i < kBefore; ++i) check(Await(reg, make_req()));

  // Kill the primary with a batch in flight; every future must still
  // complete exactly once, successfully (std::promise aborts on a double
  // set, so "exactly once" is structurally enforced).
  std::vector<std::future<EstimateResponse>> inflight;
  for (size_t i = 0; i < kInflight; ++i) {
    inflight.push_back(SubmitAsync(reg, make_req()));
  }
  node.reset();  // Connection drops; unanswered requests surface as kIoError
                 // inside the router and retry on the local replica.
  for (auto& fut : inflight) check(fut.get());

  for (size_t i = 0; i < kAfter; ++i) check(Await(reg, make_req()));

  EXPECT_EQ(completed, kBefore + kInflight + kAfter);
  EXPECT_NE(reg.slot_health(1), ShardHealth::kHealthy)
      << "dead replica still marked healthy";
}

TEST_F(FleetTest, CrashedReplicaRejoinsAndServesBitIdenticalAfterResync) {
  auto node = std::make_unique<ShardNode>(NodeConfig());
  ASSERT_TRUE(node->status().ok());
  uint16_t port = node->port();

  ShardedRegistry reg(FleetConfig(port));
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kHealthy));

  // LOCAL-primary route: publishing keeps working while the remote is down
  // (the primary answers; the dead secondary is repaired by re-sync).
  std::string route = RouteOwnedBy(reg, 0);
  ASSERT_TRUE(reg.PublishFromBytes(route, *bytes_, "fleet test").ok());

  std::vector<float> q = Query();
  std::vector<float> ts = SortedThresholds(7);
  EstimateRequest req = EstimateRequest::Sweep(q.data(), kDim, ts, route);
  EstimateResponse reference = Await(reg, req);

  // Crash the node, then run a publish storm while it is down: every
  // publish must succeed (local primary) and the retained bytes stay the
  // re-sync source of truth.
  node.reset();
  for (int i = 0; i < 3; ++i) {
    auto v = reg.PublishFromBytes(route, *bytes_, "storm");
    ASSERT_TRUE(v.ok()) << v.status().ToString();
  }

  // Restart on the same port; the health loop must probe, re-sync the
  // route, reconnect, and mark the slot healthy again.
  node = std::make_unique<ShardNode>(NodeConfig(port));
  ASSERT_TRUE(node->status().ok()) << node->status().ToString();
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kHealthy))
      << "restarted node was not re-admitted";

  // Ask the REBORN node directly (bypassing the router) — after re-sync it
  // must hold the model and answer bit-identically to the local replica.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", node->port()).ok());
  client.set_recv_timeout_ms(2000);
  auto direct = client.Call({Command::kEstimate, req});
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  const EstimateResponse& resp = direct.ValueOrDie().estimate;
  ASSERT_EQ(resp.estimates.size(), ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(resp.estimates[i], reference.estimates[i]) << i;
  }
}

TEST(TransferAssemblerLimits, HostileAnnouncementsAreTypedRejections) {
  TransferAssembler a;
  // A 2^64-1 announced size must be rejected BEFORE any allocation sized by
  // it — an unchecked buf_.reserve would throw std::length_error out of the
  // frontend loop thread and terminate the whole serving process.
  util::Status huge =
      a.Begin("r", std::numeric_limits<uint64_t>::max(), 1);
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.message().find("exceeds"), std::string::npos);
  EXPECT_FALSE(a.active());
  // More frames than bytes cannot come from a real sender (frames are
  // non-empty except the single frame of an empty payload).
  EXPECT_FALSE(a.Begin("r", 4, 6).ok());
  EXPECT_FALSE(a.active());
  // The ceiling is configurable; the boundary is accepted, one past is not.
  a.set_max_bytes(16);
  EXPECT_TRUE(a.Begin("r", 16, 1).ok());
  EXPECT_FALSE(a.Begin("r", 17, 1).ok());
  // A frame that would grow the payload past the announced size is refused
  // before it is buffered, and aborts the transfer.
  ASSERT_TRUE(a.Begin("r", 8, 1).ok());
  const std::string nine(9, 'x');
  util::Status lie = a.AddFrame(0, util::Crc32(nine.data(), nine.size()),
                                nine.data(), nine.size());
  ASSERT_FALSE(lie.ok());
  EXPECT_NE(lie.message().find("exceeds announced size"), std::string::npos);
  EXPECT_FALSE(a.active());
}

/// Write one transfer frame and read its reply: OK for an ack, the error
/// frame's message otherwise. Every reply must echo the frame's tag.
util::Status TransferStep(NetClient* client, FrameType type, uint64_t tag,
                          const TransferFields& f) {
  std::string out;
  AppendTransferFrame(&out, type, tag, f);
  SEL_RETURN_NOT_OK(client->SendRaw(out));
  FrameHeader hdr;
  SEL_ASSIGN_OR_RETURN(std::string payload, client->ReadFrame(&hdr));
  EXPECT_EQ(hdr.tag, tag);
  if (hdr.type == FrameType::kTransferAck) return util::Status::OK();
  EXPECT_EQ(hdr.type, FrameType::kError);
  std::string code, message;
  SEL_RETURN_NOT_OK(
      DecodeErrorPayload(payload.data(), payload.size(), &code, &message));
  return util::Status::Invalid(message);
}

TransferFields Begin(uint64_t size, uint64_t frames) {
  TransferFields f;
  f.model = "r";
  f.size = size;
  f.frames = frames;
  return f;
}

TransferFields Data(uint64_t seq, const std::string& bytes, uint32_t crc) {
  TransferFields f;
  f.seq = seq;
  f.data = bytes.data();
  f.data_len = bytes.size();
  f.crc = crc;
  return f;
}

TransferFields Commit(const std::string& bytes) {
  TransferFields f;
  f.model = "r";
  f.crc = util::Crc32(bytes.data(), bytes.size());
  return f;
}

/// A bare frame header, for frames the codec would never build.
std::string RawHeader(FrameType type, uint32_t payload_len, uint64_t tag) {
  std::string h = {char(kFrameMagic0), char(kFrameMagic1), char(kWireVersion),
                   char(uint8_t(type))};
  for (int i = 0; i < 4; ++i) {
    h.push_back(char((payload_len >> (8 * i)) & 0xff));
  }
  for (int i = 0; i < 8; ++i) h.push_back(char((tag >> (8 * i)) & 0xff));
  return h;
}

void ExpectRejected(util::Status st, const std::string& needle) {
  ASSERT_FALSE(st.ok()) << "expected a rejection mentioning " << needle;
  EXPECT_NE(st.message().find(needle), std::string::npos) << st.ToString();
}

TEST_F(FleetTest, HostileTransferOverWireGetsErrorReplyAndNodeSurvives) {
  ShardNode node(NodeConfig());
  ASSERT_TRUE(node.status().ok()) << node.status().ToString();

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", node.port()).ok());
  client.set_recv_timeout_ms(2000);
  ASSERT_TRUE(client.Hello(WireProto::kBinary).ok());
  ASSERT_EQ(client.proto(), WireProto::kBinary);
  const std::string eight = "8 bytes!";
  const uint32_t crc8 = util::Crc32(eight.data(), eight.size());

  // Hostile frames from any TCP client: each gets a typed error reply with
  // its own tag, and the connection stays open.
  ExpectRejected(TransferStep(&client, FrameType::kTransferBegin, 1,
                              Begin(std::numeric_limits<uint64_t>::max(), 1)),
                 "exceeds");
  ExpectRejected(TransferStep(&client, FrameType::kTransferData, 2,
                              Data(0, eight, crc8)),
                 "without begin");
  ExpectRejected(TransferStep(&client, FrameType::kTransferCommit, 3,
                              Commit(eight)),
                 "without begin");
  ASSERT_TRUE(
      TransferStep(&client, FrameType::kTransferBegin, 4, Begin(16, 2)).ok());
  ExpectRejected(TransferStep(&client, FrameType::kTransferData, 5,
                              Data(1, eight, crc8)),
                 "out of order");
  ASSERT_TRUE(
      TransferStep(&client, FrameType::kTransferBegin, 6, Begin(8, 1)).ok());
  ExpectRejected(TransferStep(&client, FrameType::kTransferData, 7,
                              Data(0, eight, crc8 ^ 1u)),
                 "checksum mismatch");
  EXPECT_EQ(node.frontend().Stats().transfer_crc_rejections, 1u);
  // Size lies in both directions: more bytes than announced, and a commit
  // short of the announced size.
  ASSERT_TRUE(
      TransferStep(&client, FrameType::kTransferBegin, 8, Begin(4, 1)).ok());
  ExpectRejected(TransferStep(&client, FrameType::kTransferData, 9,
                              Data(0, eight, crc8)),
                 "exceeds announced size");
  ASSERT_TRUE(
      TransferStep(&client, FrameType::kTransferBegin, 10, Begin(16, 1)).ok());
  ASSERT_TRUE(TransferStep(&client, FrameType::kTransferData, 11,
                           Data(0, eight, crc8))
                  .ok());
  ExpectRejected(TransferStep(&client, FrameType::kTransferCommit, 12,
                              Commit(eight)),
                 "incomplete payload");
  // A data frame too short to hold its seq and crc is a decode error.
  ASSERT_TRUE(
      client.SendRaw(RawHeader(FrameType::kTransferData, 3, 13) + "abc").ok());
  FrameHeader hdr;
  auto reply = client.ReadFrame(&hdr);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(hdr.type, FrameType::kError);
  EXPECT_EQ(hdr.tag, 13u);
  EXPECT_EQ(node.frontend().Stats().transfer_installs, 0u);

  // The same connection (and the node) keeps serving: a real transfer then
  // succeeds end to end.
  uint64_t version = 0;
  util::Status sent = SendModelState(&client, "m", *bytes_, &version);
  ASSERT_TRUE(sent.ok()) << sent.ToString();
  EXPECT_GE(version, 1u);

  // A frame over the receiver's cap loses framing: one typed error frame
  // (tag 0), then the node closes THAT connection — and keeps answering.
  NetClient big;
  ASSERT_TRUE(big.Connect("127.0.0.1", node.port()).ok());
  big.set_recv_timeout_ms(2000);
  ASSERT_TRUE(big.Hello(WireProto::kBinary).ok());
  const uint32_t over = uint32_t(FrontendConfig{}.max_line_bytes + 1);
  ASSERT_TRUE(big.SendRaw(RawHeader(FrameType::kTransferData, over, 14)).ok());
  auto rejected = big.ReadFrame(&hdr);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(hdr.type, FrameType::kError);
  EXPECT_EQ(hdr.tag, 0u);
  EXPECT_FALSE(big.ReadFrame(&hdr).ok());  // Closed by the node.
  ClientCall health;
  health.cmd = Command::kHealth;
  EXPECT_TRUE(client.Call(health).ok());
  sent = SendModelState(&client, "m", *bytes_, &version);
  ASSERT_TRUE(sent.ok()) << sent.ToString();
  EXPECT_EQ(node.frontend().Stats().transfer_installs, 2u);
}

TEST_F(FleetTest, JsonOnlyPeerCannotReceiveModelState) {
  ShardNode node(NodeConfig());
  ASSERT_TRUE(node.status().ok());
  // The retired JSON command is just an unknown command now.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", node.port()).ok());
  client.set_recv_timeout_ms(2000);
  ASSERT_TRUE(client
                  .SendRaw("{\"cmd\":\"xfer_begin\",\"model\":\"r\","
                           "\"size\":8,\"frames\":1}\n")
                  .ok());
  auto reply = client.ReadLine();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  util::Status st = ParseAckLine(reply.ValueOrDie());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unknown"), std::string::npos) << st.ToString();
}

TEST_F(FleetTest, TransferFrameCountersAgreeAcrossTheWire) {
  ShardNode node(NodeConfig());
  ASSERT_TRUE(node.status().ok());
  ShardedRegistry reg(FleetConfig(node.port()));
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kHealthy));
  auto v = reg.PublishFromBytes(RouteOwnedBy(reg, 1), *bytes_, "fleet test");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const uint64_t tx =
      reg.metrics().CounterTotal("selnet_transfer_tx_frames_total");
  EXPECT_GE(tx, 1u);
  EXPECT_EQ(tx, node.frontend().Stats().transfer_frames);

  // Another frame size: the sender reports the frames it actually wrote.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", node.port()).ok());
  client.set_recv_timeout_ms(2000);
  uint64_t frames = 0;
  util::Status sent =
      SendModelState(&client, "m", *bytes_, nullptr, &frames, 512);
  ASSERT_TRUE(sent.ok()) << sent.ToString();
  EXPECT_EQ(frames, (bytes_->size() + 511) / 512);
  EXPECT_EQ(node.frontend().Stats().transfer_frames, tx + frames);
}

/// Minimal non-SelNetCt estimator: it cannot serialize for state transfer,
/// so Publish replicates it to local slots only.
class ConstantEstimator : public eval::Estimator {
 public:
  explicit ConstantEstimator(float value) : value_(value) {}
  std::string Name() const override { return "Constant"; }
  bool IsConsistent() const override { return true; }
  void Fit(const eval::TrainContext&) override {}
  tensor::Matrix Predict(const tensor::Matrix& x,
                         const tensor::Matrix&) override {
    tensor::Matrix y(x.rows(), 1);
    for (size_t i = 0; i < x.rows(); ++i) y(i, 0) = value_;
    return y;
  }

 private:
  float value_;
};

TEST_F(FleetTest, LocalOnlyRouteWithRemotePrimaryFailsOverToLocalReplica) {
  ShardNode node(NodeConfig());
  ASSERT_TRUE(node.status().ok());
  ShardedRegistry reg(FleetConfig(node.port()));
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kHealthy));

  // Primary on the REMOTE slot, but the model cannot ship there (not a
  // SelNetCt) — it lives on the local replica only.
  std::string route = RouteOwnedBy(reg, 1);
  uint64_t version =
      reg.Publish(route, std::make_shared<ConstantEstimator>(0.25f));
  // The publish reached the local replica; returning the primary's 0 would
  // make success indistinguishable from total failure.
  EXPECT_GE(version, 1u);

  // The remote primary answers a typed not_found; the failover chain must
  // fall through to the local replica instead of failing the request.
  std::vector<float> q = Query();
  EstimateResponse resp = Await(
      reg, EstimateRequest::Point(q.data(), kDim, wl_->tmax * 0.5f, route));
  ASSERT_EQ(resp.estimates.size(), 1u);
  EXPECT_EQ(resp.estimates[0], 0.25f);
  // A replica that answered (promptly) that it lacks the route is healthy —
  // not_found must not tear down its data connection.
  EXPECT_EQ(reg.slot_health(1), ShardHealth::kHealthy);
}

// A pipeline clones the route's model from a local replica. Under
// replication 1 a route whose primary is the remote slot has none: the
// attach must abort naming the route, not index past the local shards.
TEST_F(FleetTest, AttachUpdatePipelineOnRemotePrimaryRouteDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ShardNode node(NodeConfig());
  ASSERT_TRUE(node.status().ok());
  ShardedConfig cfg = FleetConfig(node.port());
  cfg.replication = 1;
  ShardedRegistry reg(cfg);
  std::string route = RouteOwnedBy(reg, 1);
  ASSERT_FALSE(route.empty());
  EXPECT_EQ(reg.LocalServerOf(route), nullptr);
  UpdatePipelineConfig ucfg;
  ucfg.model_name = route;
  EXPECT_DEATH({ reg.AttachUpdatePipeline(ucfg, *db_, *wl_); },
               "route '" + route + "' has no local replica");
}

// Live updates reach every replica: a pipeline on a local-primary route and
// one on a remote-primary route each retrain once, and both replicas then
// answer bit-identically with the retrained model — also after the node is
// killed, restarted and resynced from the retained bytes.
TEST_F(FleetTest, PipelineRetrainsReachEveryReplicaAndSurviveResync) {
  auto node = std::make_unique<ShardNode>(NodeConfig());
  ASSERT_TRUE(node->status().ok());
  const uint16_t port = node->port();
  ShardedRegistry reg(FleetConfig(port));
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kHealthy));

  const std::vector<std::string> routes = {RouteOwnedBy(reg, 0),
                                           RouteOwnedBy(reg, 1)};
  std::vector<float> q = Query();
  std::vector<float> ts = SortedThresholds(7);
  auto sweep = [&](const std::string& route) {
    return EstimateRequest::Sweep(q.data(), kDim, ts, route);
  };
  // The remote replica, asked directly (bypassing the router).
  auto ask_node = [&](const std::string& route) {
    NetClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", port).ok());
    client.set_recv_timeout_ms(2000);
    ClientCall call;
    call.estimate = sweep(route);
    auto reply = client.Call(call);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? reply.ValueOrDie().estimate.estimates
                      : std::vector<float>{};
  };

  std::vector<std::vector<float>> before;
  std::vector<LiveUpdatePipeline*> pipelines;
  for (const std::string& route : routes) {
    ASSERT_TRUE(reg.PublishFromBytes(route, *bytes_, "fleet test").ok());
    before.push_back(Await(reg, sweep(route)).estimates);
    UpdatePipelineConfig ucfg;
    ucfg.model_name = route;
    ucfg.policy.mae_drift_fraction = 0.0;  // Any upward drift retrains.
    ucfg.policy.max_epochs = 1;
    ucfg.policy.patience = 1;
    pipelines.push_back(&reg.AttachUpdatePipeline(ucfg, *db_, *wl_));
  }
  for (LiveUpdatePipeline* pipeline : pipelines) {
    // Duplicates of a validation query inflate its labels: one op drifts.
    core::UpdateOp op;
    op.is_insert = true;
    const float* hot = wl_->queries.row(wl_->valid.front().query_id);
    for (int i = 0; i < 40; ++i) op.vectors.emplace_back(hot, hot + kDim);
    ASSERT_TRUE(pipeline->Submit(std::move(op)));
    pipeline->Flush();
    ASSERT_EQ(pipeline->Snapshot().publishes, 1u) << pipeline->route();
  }

  std::vector<std::vector<float>> retrained;
  for (size_t r = 0; r < routes.size(); ++r) {
    std::vector<float> local = Await(reg.shard(0), sweep(routes[r])).estimates;
    EXPECT_NE(local, before[r]) << routes[r] << ": not the retrained model";
    EXPECT_EQ(ask_node(routes[r]), local) << routes[r];
    EXPECT_EQ(Await(reg, sweep(routes[r])).estimates, local) << routes[r];
    retrained.push_back(local);
  }

  // Kill the node; traffic on the remote-primary route fails over to the
  // local replica and marks the remote suspect, so its restart is resynced.
  node.reset();
  EXPECT_EQ(Await(reg, sweep(routes[1])).estimates, retrained[1]);
  EXPECT_NE(reg.slot_health(1), ShardHealth::kHealthy);
  node = std::make_unique<ShardNode>(NodeConfig(port));
  ASSERT_TRUE(node->status().ok()) << node->status().ToString();
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kHealthy))
      << "restarted node was not re-admitted";
  for (size_t r = 0; r < routes.size(); ++r) {
    EXPECT_EQ(ask_node(routes[r]), retrained[r]) << routes[r];
    EXPECT_EQ(Await(reg.shard(0), sweep(routes[r])).estimates, retrained[r]);
  }
}

// A route whose model bytes are retained for resync must not take a model
// that cannot serialize: the local replica would switch while the remote
// one, and every later resync, kept the old model.
TEST_F(FleetTest, UnserializableModelOverRetainedBytesIsRefused) {
  ShardNode node(NodeConfig());
  ASSERT_TRUE(node.status().ok());
  ShardedRegistry reg(FleetConfig(node.port()));
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kHealthy));

  std::string route = RouteOwnedBy(reg, 1);  // Remote primary.
  ASSERT_TRUE(reg.PublishFromBytes(route, *bytes_, "fleet test").ok());
  std::vector<float> q = Query();
  EstimateRequest req =
      EstimateRequest::Point(q.data(), kDim, wl_->tmax * 0.5f, route);
  const float reference = Await(reg, req).estimates.at(0);
  const uint64_t local_version = reg.shard(0).registry().VersionOf(route);

  EXPECT_EQ(reg.Publish(route, std::make_shared<ConstantEstimator>(0.25f)),
            0u);
  EXPECT_EQ(reg.shard(0).registry().VersionOf(route), local_version);
  EXPECT_EQ(Await(reg, req).estimates.at(0), reference);
  EXPECT_EQ(Await(reg.shard(0), req).estimates.at(0), reference);
}

TEST_F(FleetTest, HealthStateMachineAdmitsLateStartingNode) {
  // Reserve a port, then close the listener so the registry's first probes
  // hit connection-refused: the slot must start dead, not healthy.
  uint16_t port = 0;
  {
    util::TcpListener probe;
    ASSERT_TRUE(probe.Listen("127.0.0.1", 0).ok());
    port = probe.port();
  }

  ShardedRegistry reg(FleetConfig(port));
  EXPECT_NE(reg.slot_health(1), ShardHealth::kHealthy);

  std::string route = RouteOwnedBy(reg, 1);  // Remote-primary route.
  ASSERT_TRUE(reg.PublishFromBytes(route, *bytes_, "fleet test").ok())
      << "publish must succeed through the surviving replica";

  // Traffic before the node exists: served by the local replica.
  std::vector<float> q = Query();
  std::vector<float> ts = SortedThresholds(4);
  EstimateRequest req = EstimateRequest::Sweep(q.data(), kDim, ts, route);
  EstimateResponse before = Await(reg, req);
  ASSERT_EQ(before.estimates.size(), ts.size());

  // Node comes up late; the health loop admits it AND ships the route's
  // bytes before marking it healthy.
  ShardNode node(NodeConfig(port));
  ASSERT_TRUE(node.status().ok()) << node.status().ToString();
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kHealthy));

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", node.port()).ok());
  client.set_recv_timeout_ms(2000);
  auto direct = client.Call({Command::kEstimate, req});
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(direct.ValueOrDie().estimate.estimates[i], before.estimates[i])
        << i;
  }
}

TEST_F(FleetTest, TracedRemoteRequestMergesRemoteStagesIntoCallerTrace) {
  ShardNode node(NodeConfig());
  ASSERT_TRUE(node.status().ok());
  ShardedRegistry reg(FleetConfig(node.port()));
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kHealthy));

  std::string route = RouteOwnedBy(reg, 1);  // Remote-primary route.
  ASSERT_TRUE(reg.PublishFromBytes(route, *bytes_, "fleet test").ok());

  std::vector<float> q = Query();
  std::vector<float> ts = SortedThresholds(5);
  EstimateRequest req = EstimateRequest::Sweep(q.data(), kDim, ts, route);
  auto trace = std::make_shared<RequestTrace>();
  req.trace = trace;

  EstimateResponse resp = Await(reg, std::move(req));
  ASSERT_EQ(resp.estimates.size(), ts.size());
  // The remote's stage block is consumed by the trace merge, never leaked to
  // the caller's response.
  EXPECT_TRUE(resp.stage_ms.empty());

  SpanRecord span = trace->Finish(route, 0);
  double remote_queue = span.stage_ms[size_t(Stage::kRemoteQueue)];
  double remote_predict = span.stage_ms[size_t(Stage::kRemotePredict)];
  double remote_wire = span.stage_ms[size_t(Stage::kRemoteWire)];
  // The remote actually measured its stages (the trace flag crossed the
  // wire), and the caller-observed hop bounds the remote's own share.
  EXPECT_GT(remote_queue, 0.0);
  EXPECT_GT(remote_predict, 0.0);
  EXPECT_GT(remote_wire, 0.0);
  EXPECT_LE(remote_queue + remote_predict, remote_wire + 1e-9);
}

TEST_F(FleetTest, KilledPrimaryBumpsFailoverCountersAndEventRing) {
  auto node = std::make_unique<ShardNode>(NodeConfig());
  ASSERT_TRUE(node->status().ok());
  uint16_t port = node->port();

  ShardedRegistry reg(FleetConfig(port));
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kHealthy));
  std::string endpoint = "127.0.0.1:" + std::to_string(port);

  std::string route = RouteOwnedBy(reg, 1);  // Traffic rides the wire.
  ASSERT_TRUE(reg.PublishFromBytes(route, *bytes_, "fleet test").ok());

  std::vector<float> q = Query();
  std::vector<float> ts = SortedThresholds(5);
  auto make_req = [&] {
    return EstimateRequest::Sweep(q.data(), kDim, ts, route);
  };
  EstimateResponse reference = Await(reg, make_req());
  ASSERT_EQ(reference.estimates.size(), ts.size());

  util::MetricsRegistry& metrics = reg.metrics();
  uint64_t successes_before =
      metrics.CounterTotal("selnet_failover_successes_total");

  // Kill the primary with requests in flight: every query must still answer
  // (zero client-visible failures). The in-flight batch may legitimately
  // finish before the kill lands, so the deterministic counter check rides
  // on the POST-kill submits below, which must walk past the dead primary.
  std::vector<std::future<EstimateResponse>> inflight;
  for (int i = 0; i < 8; ++i) inflight.push_back(SubmitAsync(reg, make_req()));
  node.reset();
  size_t completed = 0;
  auto check = [&](EstimateResponse resp) {
    ASSERT_EQ(resp.estimates.size(), ts.size());
    for (size_t i = 0; i < ts.size(); ++i) {
      EXPECT_EQ(resp.estimates[i], reference.estimates[i]);
    }
    ++completed;
  };
  for (auto& fut : inflight) check(fut.get());  // get() throws on a loss.
  for (int i = 0; i < 4; ++i) check(Await(reg, make_req()));
  EXPECT_EQ(completed, 12u);

  uint64_t attempts = metrics.CounterTotal("selnet_failover_attempts_total");
  uint64_t successes = metrics.CounterTotal("selnet_failover_successes_total");
  uint64_t walked =
      metrics.CounterTotal("selnet_failover_replicas_walked_total");
  EXPECT_GT(attempts, 0u) << "replica failures must be counted by reason";
  EXPECT_GT(successes, successes_before)
      << "requests that answered on a later replica must count as rescued";
  EXPECT_GE(walked, successes - successes_before)
      << "each rescue walked at least one replica";

  // Let the health loop actually observe the death (probe failure) before
  // the node returns; restarting faster legitimately short-circuits the
  // machine to suspect -> resyncing, which is not what this test is about.
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kDead));

  // Restart on the same port and wait for re-admission: the flight recorder
  // must show the full lifecycle for this endpoint, in order, exactly
  // suspect -> dead -> resyncing -> healthy after the kill.
  node = std::make_unique<ShardNode>(NodeConfig(port));
  ASSERT_TRUE(node->status().ok());
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kHealthy));

  std::vector<util::Event> events = reg.events().Snapshot();
  std::vector<std::pair<std::string, std::string>> health_path;
  for (const util::Event& e : events) {
    if (e.kind == "health" && e.target == endpoint) {
      health_path.emplace_back(e.from, e.to);
    }
  }
  // Startup admission contributes dead->resyncing->healthy; the kill+rejoin
  // is the last four transitions.
  ASSERT_GE(health_path.size(), 4u);
  std::vector<std::pair<std::string, std::string>> tail(
      health_path.end() - 4, health_path.end());
  std::vector<std::pair<std::string, std::string>> want = {
      {"healthy", "suspect"},
      {"suspect", "dead"},
      {"dead", "resyncing"},
      {"resyncing", "healthy"},
  };
  EXPECT_EQ(tail, want);
  // Every ring transition is also a counter sample — the two views of the
  // same machine must agree.
  EXPECT_GE(metrics.CounterTotal("selnet_health_transitions_total"),
            health_path.size());
}

TEST_F(FleetTest, ScrapeMergePoolsRemoteHistogramsAndStampsSlots) {
  ShardNode node(NodeConfig());
  ASSERT_TRUE(node.status().ok());
  ShardedConfig cfg = FleetConfig(node.port());
  cfg.node_id = "coordinator";
  cfg.scrape_interval_ms = 0.0;  // Manual ScrapeNow only: deterministic.
  ShardedRegistry reg(cfg);
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kHealthy));

  std::string remote_route = RouteOwnedBy(reg, 1);
  std::string local_route = RouteOwnedBy(reg, 0);
  ASSERT_TRUE(reg.PublishFromBytes(remote_route, *bytes_, "fleet").ok());
  ASSERT_TRUE(reg.PublishFromBytes(local_route, *bytes_, "fleet").ok());

  std::vector<float> q = Query();
  std::vector<float> ts = SortedThresholds(5);
  constexpr size_t kRemoteReqs = 6, kLocalReqs = 4;
  for (size_t i = 0; i < kRemoteReqs; ++i) {
    Await(reg, EstimateRequest::Sweep(q.data(), kDim, ts, remote_route));
  }
  for (size_t i = 0; i < kLocalReqs; ++i) {
    Await(reg, EstimateRequest::Sweep(q.data(), kDim, ts, local_route));
  }

  // Ground truth: scrape the node directly, bypassing the registry.
  NetClient direct;
  ASSERT_TRUE(direct.Connect("127.0.0.1", node.port()).ok());
  direct.set_recv_timeout_ms(2000);
  auto remote_res = direct.Call({Command::kStatsWire});
  ASSERT_TRUE(remote_res.ok()) << remote_res.status().ToString();
  const StatsSnapshot& remote_snap = remote_res.ValueOrDie().stats;
  EXPECT_GT(remote_snap.requests, 0u);
  EXPECT_GT(remote_snap.latency_hist.count, 0u);
  EXPECT_FALSE(remote_snap.node_id.empty());
  EXPECT_GT(remote_snap.uptime_s, 0.0);

  uint64_t local_requests = 0, local_latency = 0;
  for (const StatsSnapshot& s : reg.ShardSnapshots()) {
    local_requests += s.requests;
    local_latency += s.latency_hist.count;
  }
  EXPECT_GT(local_requests, 0u);

  reg.ScrapeNow();
  StatsSnapshot agg = reg.AggregateSnapshot();
  // The fleet view pools local + remote: counters sum, and the latency
  // histogram is the bucket-merge of both sides (true pooled percentiles,
  // not a worst-shard guess). Traffic has stopped, so the direct scrape and
  // the registry's own agree exactly.
  EXPECT_EQ(agg.requests, local_requests + remote_snap.requests);
  EXPECT_EQ(agg.latency_hist.count, local_latency + remote_snap.latency_hist.count);
  EXPECT_EQ(agg.node_id, "coordinator");

  ASSERT_EQ(agg.slots.size(), 2u);
  EXPECT_EQ(agg.slots[0].kind, "local");
  EXPECT_EQ(agg.slots[1].kind, "remote");
  EXPECT_EQ(agg.slots[1].endpoint,
            "127.0.0.1:" + std::to_string(node.port()));
  EXPECT_EQ(agg.slots[1].health, "healthy");
  // The remote self-reports its identity; the scrape carried it over.
  EXPECT_EQ(agg.slots[1].node_id, remote_snap.node_id);
  EXPECT_GE(agg.slots[1].scrape_age_s, 0.0);

  // A scrape past its TTL is dropped from the merge (stale truth is worse
  // than missing truth), though the slot row still shows the endpoint.
  ShardedConfig stale_cfg = FleetConfig(node.port());
  stale_cfg.scrape_interval_ms = 0.0;
  stale_cfg.scrape_ttl_ms = 0.001;
  ShardedRegistry stale(stale_cfg);
  ASSERT_TRUE(WaitForHealth(stale, 1, ShardHealth::kHealthy));
  stale.ScrapeNow();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  StatsSnapshot dropped = stale.AggregateSnapshot();
  EXPECT_EQ(dropped.requests, 0u)
      << "an expired scrape must not leak remote counters into the merge";
  ASSERT_EQ(dropped.slots.size(), 2u);
  EXPECT_EQ(dropped.slots[1].health, "healthy");
}

TEST_F(FleetTest, MetricsAndEventsServeOverTheWire) {
  ShardNode node(NodeConfig());
  ASSERT_TRUE(node.status().ok());
  ShardedConfig cfg = FleetConfig(node.port());
  cfg.node_id = "coordinator";
  ShardedRegistry reg(cfg);
  ASSERT_TRUE(WaitForHealth(reg, 1, ShardHealth::kHealthy));

  // Local-primary route: the submit lands on the coordinator's own shard, so
  // the aggregate carries it without waiting for a scrape tick.
  std::string route = RouteOwnedBy(reg, 0);
  ASSERT_TRUE(reg.PublishFromBytes(route, *bytes_, "fleet").ok());
  std::vector<float> q = Query();
  std::vector<float> ts = SortedThresholds(5);
  Await(reg, EstimateRequest::Sweep(q.data(), kDim, ts, route));

  FrontendConfig fcfg;
  fcfg.drain_timeout_s = 0.2;
  NetFrontend frontend(fcfg, &reg);
  ASSERT_TRUE(frontend.status().ok()) << frontend.status().ToString();

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", frontend.port()).ok());
  client.set_recv_timeout_ms(2000);

  // {"cmd":"metrics"}: one lint-clean Prometheus exposition combining the
  // snapshot-derived series, the frontend's own, and the registry's.
  auto metrics = client.Call({Command::kMetrics, {}, {"metrics", /*tag=*/7}});
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::string& text = metrics.ValueOrDie().text;
  util::Status lint = util::LintExposition(text);
  EXPECT_TRUE(lint.ok()) << lint.ToString() << "\n" << text;
  for (const char* needle :
       {"selnet_requests_total", "selnet_slot_health",
        "selnet_frontend_admin_requests_total",
        "selnet_health_transitions_total", "selnet_publish_replica_total",
        "selnet_uptime_seconds"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "metrics text missing " << needle;
  }
  EXPECT_NE(text.find("node=\"coordinator\""), std::string::npos)
      << "slot rows must carry the coordinator identity";

  // {"cmd":"events"}: the flight recorder, as a JSON array — startup
  // admission of the remote is already on it.
  auto events_reply =
      client.Call({Command::kEvents, {}, {"events", /*tag=*/8}});
  ASSERT_TRUE(events_reply.ok()) << events_reply.status().ToString();
  const std::string& events = events_reply.ValueOrDie().body;
  EXPECT_NE(events.find("\"kind\":\"health\""), std::string::npos);
  EXPECT_NE(events.find("\"to\":\"healthy\""), std::string::npos);

  // {"cmd":"stats_wire"} against the coordinator frontend round-trips the
  // aggregate (this is what a higher-tier scraper would consume).
  auto wire_snap =
      client.Call({Command::kStatsWire, {}, {"stats_wire", /*tag=*/9}});
  ASSERT_TRUE(wire_snap.ok()) << wire_snap.status().ToString();
  EXPECT_GE(wire_snap.ValueOrDie().stats.requests, 1u);
  EXPECT_EQ(wire_snap.ValueOrDie().stats.node_id, "coordinator");
}

}  // namespace
}  // namespace selnet::serve
