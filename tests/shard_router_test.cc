#include "serve/shard_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/selnet_ct.h"
#include "data/synthetic.h"
#include "serve/update_pipeline.h"
#include "util/histogram.h"
#include "util/stopwatch.h"
#include "serve_await.h"

namespace selnet::serve {
namespace {

using tensor::Matrix;

// A cheap deterministic servable: estimate = bias + sum(x) + t. Lets the
// routing tests exercise the full serving stack without training a network,
// and `bias` tells shards' answers apart.
class AffineEstimator : public eval::Estimator {
 public:
  explicit AffineEstimator(float bias, int sleep_ms = 0)
      : bias_(bias), sleep_ms_(sleep_ms) {}

  std::string Name() const override { return "Affine"; }
  bool IsConsistent() const override { return true; }
  void Fit(const eval::TrainContext&) override {}

  Matrix Predict(const Matrix& x, const Matrix& t) override {
    if (sleep_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    }
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
  int sleep_ms_;
};

ShardedConfig MakeConfig(size_t shards, size_t dim = 4) {
  ShardedConfig cfg;
  cfg.server.dim = dim;
  cfg.server.scheduler.max_batch = 16;
  cfg.num_shards = shards;
  cfg.threads_per_shard = 1;
  return cfg;
}

// ------------------------------------------------------------------- ring ---

TEST(HashRingTest, DeterministicAcrossInstances) {
  HashRing a(4, 64);
  HashRing b(4, 64);
  for (int i = 0; i < 200; ++i) {
    std::string route = "model-" + std::to_string(i);
    EXPECT_EQ(a.ShardOf(route), b.ShardOf(route)) << route;
  }
}

TEST(HashRingTest, CoversAllShardsAndBalancesRoughly) {
  const size_t kShards = 4;
  HashRing ring(kShards, 128);
  std::vector<size_t> load(kShards, 0);
  const size_t kRoutes = 2000;
  for (size_t i = 0; i < kRoutes; ++i) {
    ++load[ring.ShardOf("route/" + std::to_string(i))];
  }
  double mean = double(kRoutes) / double(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(load[s], 0u) << "shard " << s << " owns nothing";
    // Consistent hashing is not perfectly uniform; 2x mean is a loose bound
    // that still catches a broken ring (everything on one shard).
    EXPECT_LT(double(load[s]), 2.0 * mean) << "shard " << s;
  }
}

TEST(HashRingTest, GrowingRingMovesOnlyAFractionOfRoutes) {
  HashRing four(4, 128);
  HashRing five(5, 128);
  size_t moved = 0;
  const size_t kRoutes = 2000;
  for (size_t i = 0; i < kRoutes; ++i) {
    std::string route = "route/" + std::to_string(i);
    if (four.ShardOf(route) != five.ShardOf(route)) ++moved;
  }
  // Consistent hashing's selling point: adding shard 5 should move ~1/5 of
  // the keyspace, not reshuffle everything (modulo hashing would move ~80%).
  EXPECT_LT(moved, kRoutes / 2);
  EXPECT_GT(moved, 0u);
}

TEST(HashRingTest, SingleShardOwnsEverything) {
  HashRing ring(1, 16);
  EXPECT_EQ(ring.ShardOf("a"), 0u);
  EXPECT_EQ(ring.ShardOf("zz"), 0u);
}

// --------------------------------------------------------------- registry ---

TEST(ShardedRegistryTest, PublishLandsOnOwningShardOnly) {
  ShardedRegistry reg(MakeConfig(3));
  std::vector<std::string> routes;
  for (int i = 0; i < 9; ++i) routes.push_back("m" + std::to_string(i));
  for (size_t i = 0; i < routes.size(); ++i) {
    reg.Publish(routes[i], std::make_shared<AffineEstimator>(float(i)));
  }
  for (const auto& route : routes) {
    size_t owner = reg.ShardOf(route);
    for (size_t s = 0; s < reg.num_shards(); ++s) {
      uint64_t v = reg.shard(s).registry().VersionOf(route);
      if (s == owner) {
        EXPECT_GT(v, 0u) << route << " missing on its owner shard " << s;
      } else {
        EXPECT_EQ(v, 0u) << route << " leaked onto shard " << s;
      }
    }
  }
}

TEST(ShardedRegistryTest, SubmitAnswersMatchDirectModel) {
  ShardedRegistry reg(MakeConfig(3));
  for (int i = 0; i < 6; ++i) {
    reg.Publish("m" + std::to_string(i),
                std::make_shared<AffineEstimator>(float(100 * i)));
  }
  float x[4] = {0.1f, 0.2f, 0.3f, 0.4f};
  for (int i = 0; i < 6; ++i) {
    EstimateResponse resp =
        Await(reg, EstimateRequest::Point(x, 4, 0.5f, "m" + std::to_string(i)));
    float expected = float(100 * i) + (0.1f + 0.2f + 0.3f + 0.4f) + 0.5f;
    ASSERT_EQ(resp.estimates.size(), 1u);
    EXPECT_FLOAT_EQ(resp.estimates[0], expected) << "route m" << i;
  }
  reg.Drain();
}

TEST(ShardedRegistryTest, DefaultRouteResolvesBeforeHashing) {
  ShardedConfig cfg = MakeConfig(4);
  cfg.server.model_name = "primary";
  ShardedRegistry reg(cfg);
  reg.Publish(std::make_shared<AffineEstimator>(7.0f));  // Default route.
  // "" and "primary" must land on the same shard — the same model.
  EXPECT_EQ(reg.ShardOf(""), reg.ShardOf("primary"));
  float x[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  EstimateResponse via_empty =
      Await(reg, EstimateRequest::Point(x, 4, 1.0f));
  EstimateResponse via_name =
      Await(reg, EstimateRequest::Point(x, 4, 1.0f, "primary"));
  EXPECT_EQ(via_empty.estimates[0], via_name.estimates[0]);
  EXPECT_EQ(via_empty.version, via_name.version);
}

TEST(ShardedRegistryTest, UnknownRouteFailsRequestNotProcess) {
  ShardedRegistry reg(MakeConfig(2));
  reg.Publish("known", std::make_shared<AffineEstimator>(0.0f));
  float x[4] = {0};
  auto fut = SubmitAsync(reg, EstimateRequest::Point(x, 4, 0.5f, "nope"));
  EXPECT_THROW(fut.get(), std::runtime_error);
  // The fleet still serves.
  EstimateResponse ok =
      Await(reg, EstimateRequest::Point(x, 4, 0.5f, "known"));
  EXPECT_EQ(ok.estimates.size(), 1u);
}

TEST(ShardedRegistryTest, HotShardDoesNotStallOtherShards) {
  // One route's model sleeps per batch, saturating its shard's single
  // worker. Requests to a route on ANOTHER shard must keep completing at
  // interactive latency — the per-shard pool slice is the isolation.
  ShardedConfig cfg = MakeConfig(2);
  ShardedRegistry reg(cfg);
  // Find two routes on different shards.
  std::string slow_route = "slow", fast_route;
  for (int i = 0; i < 64; ++i) {
    std::string cand = "fast" + std::to_string(i);
    if (reg.ShardOf(cand) != reg.ShardOf(slow_route)) {
      fast_route = cand;
      break;
    }
  }
  ASSERT_FALSE(fast_route.empty());
  reg.Publish(slow_route,
              std::make_shared<AffineEstimator>(0.0f, /*sleep_ms=*/80));
  reg.Publish(fast_route, std::make_shared<AffineEstimator>(1.0f));

  float x[4] = {0.5f, 0.5f, 0.5f, 0.5f};
  // Keep the slow shard permanently busy.
  std::vector<std::future<EstimateResponse>> slow;
  for (int i = 0; i < 8; ++i) {
    slow.push_back(
        SubmitAsync(reg, EstimateRequest::Point(x, 4, 0.1f, slow_route)));
  }
  // Fast-shard requests while the slow shard grinds.
  util::Stopwatch watch;
  for (int i = 0; i < 5; ++i) {
    Await(reg, EstimateRequest::Point(x, 4, 0.1f, fast_route));
  }
  double fast_ms = watch.ElapsedMillis();
  // 8 slow batches x 80ms each = 640ms of queued slow work; the fast route
  // finishing far under that proves it never waited behind the hot shard.
  EXPECT_LT(fast_ms, 300.0);
  for (auto& f : slow) f.get();
  reg.Drain();
}

TEST(ShardedRegistryTest, PerShardStatsAggregate) {
  ShardedRegistry reg(MakeConfig(2));
  reg.Publish("a", std::make_shared<AffineEstimator>(0.0f));
  reg.Publish("b", std::make_shared<AffineEstimator>(1.0f));
  float x[4] = {0.1f, 0.1f, 0.1f, 0.1f};
  const int kPer = 10;
  for (int i = 0; i < kPer; ++i) {
    Await(reg, EstimateRequest::Point(x, 4, 0.2f, "a"));
    Await(reg, EstimateRequest::Point(x, 4, 0.2f, "b"));
  }
  reg.Drain();
  std::vector<StatsSnapshot> per_shard = reg.ShardSnapshots();
  uint64_t summed = 0;
  for (const auto& s : per_shard) summed += s.requests;
  StatsSnapshot agg = reg.AggregateSnapshot();
  EXPECT_EQ(summed, uint64_t(2 * kPer));
  EXPECT_EQ(agg.requests, summed);
  // Each route appears exactly once across all shard route tables.
  size_t route_rows = 0;
  for (const auto& s : per_shard) route_rows += s.routes.size();
  EXPECT_EQ(route_rows, agg.routes.size());
  std::string report = reg.StatsReport();
  EXPECT_NE(report.find("sharded serving"), std::string::npos);
  EXPECT_NE(report.find("total"), std::string::npos);
}

TEST(AggregateSnapshotsTest, SummaryOnlySnapshotsFallBackToWorstShard) {
  // Hand-built snapshots with no histogram data (e.g. an external exporter)
  // cannot produce a true merged percentile; the aggregate falls back to the
  // worst shard and a request-weighted mean.
  StatsSnapshot a;
  a.requests = 10;
  a.latency_mean_ms = 1.0;
  a.latency_p99_ms = 2.0;
  StatsSnapshot b;
  b.requests = 30;
  b.latency_mean_ms = 5.0;
  b.latency_p99_ms = 9.0;
  StatsSnapshot agg = AggregateSnapshots({a, b});
  EXPECT_EQ(agg.requests, 40u);
  // (1*10 + 5*30) / 40 — the fleet mean, not the worst shard's mean.
  EXPECT_DOUBLE_EQ(agg.latency_mean_ms, 4.0);
  EXPECT_DOUBLE_EQ(agg.latency_p99_ms, 9.0);
}

TEST(AggregateSnapshotsTest, MergedHistogramGivesPooledPercentiles) {
  // Two shards with very different latency profiles. The fleet p99 must be
  // the percentile of the POOLED samples (computed by bucket merge), not the
  // worst shard's p99 — with 9:1 traffic skew toward the fast shard the two
  // answers differ by an order of magnitude.
  util::LatencyHistogram fast_hist;
  util::LatencyHistogram slow_hist;
  std::vector<double> pooled;
  for (int i = 0; i < 990; ++i) {
    double ms = 1.0 + 0.001 * i;  // Fast shard: ~1..2ms.
    fast_hist.Record(ms);
    pooled.push_back(ms);
  }
  for (int i = 0; i < 10; ++i) {
    double ms = 50.0 + 1.0 * i;  // Slow shard: 50..59ms.
    slow_hist.Record(ms);
    pooled.push_back(ms);
  }
  StatsSnapshot a;
  a.requests = 990;
  a.latency_hist = fast_hist.Snapshot();
  a.latency_p99_ms = a.latency_hist.ValueAtQuantile(0.99);
  StatsSnapshot b;
  b.requests = 10;
  b.latency_hist = slow_hist.Snapshot();
  b.latency_p99_ms = b.latency_hist.ValueAtQuantile(0.99);

  StatsSnapshot agg = AggregateSnapshots({a, b});
  EXPECT_EQ(agg.latency_hist.count, 1000u);

  std::sort(pooled.begin(), pooled.end());
  for (double q : {0.50, 0.90, 0.99}) {
    double reference = PercentileOfSorted(pooled, q);
    double merged = agg.latency_hist.ValueAtQuantile(q);
    // Within the histogram's documented relative error bound (plus tick
    // rounding slack).
    EXPECT_NEAR(merged, reference,
                reference * util::HistogramSnapshot::kRelativeErrorBound +
                    0.002)
        << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(agg.latency_p99_ms, agg.latency_hist.ValueAtQuantile(0.99));
  // The old worst-shard answer (slow shard's p99 ~= 60ms) would be ~10x the
  // pooled p99 (~6ms boundary region); assert we are NOT reporting it.
  EXPECT_LT(agg.latency_p99_ms, 0.9 * b.latency_p99_ms);
}

TEST(ShardedRegistryTest, HotSwapStaysShardLocal) {
  ShardedRegistry reg(MakeConfig(3));
  reg.Publish("stable", std::make_shared<AffineEstimator>(5.0f));
  std::string swapped = "swapped";
  reg.Publish(swapped, std::make_shared<AffineEstimator>(1.0f));
  size_t swap_shard = reg.ShardOf(swapped);
  uint64_t stable_version_before =
      reg.shard(reg.ShardOf("stable")).registry().VersionOf("stable");
  // Republishing one route bumps only its own shard's registry state.
  reg.Publish(swapped, std::make_shared<AffineEstimator>(2.0f));
  EXPECT_EQ(reg.shard(reg.ShardOf("stable")).registry().VersionOf("stable"),
            stable_version_before);
  EXPECT_GE(reg.shard(swap_shard).registry().VersionOf(swapped), 2u);
  float x[4] = {0};
  EstimateResponse resp =
      Await(reg, EstimateRequest::Point(x, 4, 0.0f, swapped));
  EXPECT_FLOAT_EQ(resp.estimates[0], 2.0f);  // New snapshot serves.
}

// ------------------------------------- live-update pipeline, per shard ---

class ShardPipelineFixture : public ::testing::Test {
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
  }

  std::unique_ptr<data::Database> db_;
  data::Workload wl_;
  eval::TrainContext ctx_;
  core::SelNetConfig cfg_;
  std::shared_ptr<core::SelNetCt> model_;
};

TEST_F(ShardPipelineFixture, PipelineRepublishesOnOwningShard) {
  ShardedRegistry reg(MakeConfig(2, /*dim=*/4));
  const std::string route = "live";
  reg.Publish(route, model_);
  size_t owner = reg.ShardOf(route);

  UpdatePipelineConfig ucfg;
  ucfg.model_name = route;
  ucfg.policy.mae_drift_fraction = 0.0;
  ucfg.policy.max_epochs = 1;
  ucfg.policy.patience = 1;
  LiveUpdatePipeline& pipeline = reg.AttachUpdatePipeline(ucfg, *db_, wl_);

  uint64_t version_before = reg.shard(owner).registry().VersionOf(route);
  core::UpdateOp op;
  op.is_insert = true;
  const float* hot = wl_.queries.row(wl_.valid[0].query_id);
  for (int i = 0; i < 40; ++i) op.vectors.emplace_back(hot, hot + 4);
  ASSERT_TRUE(pipeline.Submit(std::move(op)));
  pipeline.Flush();

  UpdatePipelineState state = pipeline.Snapshot();
  EXPECT_EQ(state.ops_applied, 1u);
  if (state.publishes > 0) {
    EXPECT_GT(reg.shard(owner).registry().VersionOf(route), version_before);
  }
  // The other shard's registry never heard of the route.
  EXPECT_EQ(reg.shard(1 - owner).registry().VersionOf(route), 0u);
  // Served sweep stays monotone on the republished snapshot.
  std::vector<float> ts;
  for (int i = 1; i <= 6; ++i) ts.push_back(wl_.tmax * float(i) / 6.0f);
  EstimateResponse resp =
      Await(reg, EstimateRequest::Sweep(wl_.queries.row(0), 4, ts, route));
  for (size_t i = 1; i < resp.estimates.size(); ++i) {
    EXPECT_GE(resp.estimates[i], resp.estimates[i - 1]);
  }
}

TEST_F(ShardPipelineFixture, TwoRoutesOnOneShardEachRetrainAndRepublish) {
  // Pipelines attach per route at the router, not per shard: two routes
  // that hash to the same local shard each get their own pipeline.
  ShardedRegistry reg(MakeConfig(2, /*dim=*/4));
  std::vector<std::string> routes;
  for (int i = 0; routes.size() < 2 && i < 1000; ++i) {
    std::string route = "live-" + std::to_string(i);
    if (reg.ShardOf(route) == 0) routes.push_back(route);
  }
  ASSERT_EQ(routes.size(), 2u);
  std::vector<LiveUpdatePipeline*> pipelines;
  std::vector<uint64_t> before;
  for (const std::string& route : routes) {
    reg.Publish(route, model_->CloneServable());
    before.push_back(reg.shard(0).registry().VersionOf(route));
    UpdatePipelineConfig ucfg;
    ucfg.model_name = route;
    ucfg.policy.mae_drift_fraction = 0.0;  // Any upward drift retrains.
    ucfg.policy.max_epochs = 1;
    ucfg.policy.patience = 1;
    pipelines.push_back(&reg.AttachUpdatePipeline(ucfg, *db_, wl_));
  }
  auto drifting_op = [&] {
    core::UpdateOp op;
    op.is_insert = true;
    const float* hot = wl_.queries.row(wl_.valid[0].query_id);
    for (int i = 0; i < 40; ++i) op.vectors.emplace_back(hot, hot + 4);
    return op;
  };
  for (LiveUpdatePipeline* pipeline : pipelines) {
    ASSERT_TRUE(pipeline->Submit(drifting_op()));
  }
  for (size_t r = 0; r < routes.size(); ++r) {
    pipelines[r]->Flush();
    UpdatePipelineState state = pipelines[r]->Snapshot();
    EXPECT_EQ(pipelines[r]->route(), routes[r]);
    EXPECT_EQ(state.retrains_triggered, 1u) << routes[r];
    EXPECT_EQ(state.publishes, 1u) << routes[r];
    EXPECT_EQ(reg.shard(0).registry().VersionOf(routes[r]),
              state.last_published_version);
    EXPECT_GT(state.last_published_version, before[r]);
  }
  // Stopping one pipeline leaves the other running.
  pipelines[0]->Stop();
  EXPECT_FALSE(pipelines[0]->Submit(drifting_op()));
  ASSERT_TRUE(pipelines[1]->Submit(drifting_op()));
  pipelines[1]->Flush();
  EXPECT_EQ(pipelines[1]->Snapshot().ops_applied, 2u);
}

TEST(ShardedRegistryDeathTest, SlotLookupsPastNumSlotsDie) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ShardedRegistry reg(MakeConfig(2));
  EXPECT_EQ(reg.slot_health(1), ShardHealth::kHealthy);
  EXPECT_DEATH({ reg.slot_health(2); }, "slot 2 out of range");
  EXPECT_DEATH({ reg.shard(2); }, "slot 2 out of range");
}

}  // namespace
}  // namespace selnet::serve
