#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/selnet_ct.h"
#include "core/updater.h"
#include "data/synthetic.h"
#include "serve/server.h"
#include "serve/shard_router.h"
#include "serve/update_pipeline.h"

namespace selnet::core {
namespace {

class UpdaterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.n = 700;
    spec_.dim = 6;
    spec_.num_clusters = 4;
    db_ = std::make_unique<data::Database>(data::GenerateMixture(spec_),
                                           data::Metric::kEuclidean);
    data::WorkloadSpec wspec;
    wspec.num_queries = 30;
    wspec.w = 6;
    wspec.max_sel_fraction = 0.2;
    wl_ = data::GenerateWorkload(*db_, wspec);
    ctx_.db = db_.get();
    ctx_.workload = &wl_;
    ctx_.epochs = 6;

    SelNetConfig cfg;
    cfg.input_dim = 6;
    cfg.tmax = wl_.tmax;
    cfg.num_control = 6;
    cfg.latent_dim = 3;
    cfg.ae_hidden = 16;
    cfg.tau_hidden = 24;
    cfg.p_hidden = 32;
    cfg.embed_h = 6;
    cfg.ae_pretrain_epochs = 2;
    model_ = std::make_unique<SelNetCt>(cfg);
    model_->Fit(ctx_);
  }

  data::SyntheticSpec spec_;
  std::unique_ptr<data::Database> db_;
  data::Workload wl_;
  eval::TrainContext ctx_;
  std::unique_ptr<SelNetCt> model_;
};

TEST_F(UpdaterFixture, InsertKeepsLabelsExact) {
  UpdatePolicy policy;
  policy.mae_drift_fraction = 1e9;  // never retrain; isolate label patching
  UpdateManager mgr(db_.get(), &wl_, model_.get(), ctx_, policy);

  UpdateOp op;
  op.is_insert = true;
  tensor::Matrix fresh = data::DrawFromSameMixture(spec_, 5, 123);
  for (size_t i = 0; i < 5; ++i) {
    op.vectors.emplace_back(fresh.row(i), fresh.row(i) + 6);
  }
  UpdateResult res = mgr.Apply(op);
  EXPECT_FALSE(res.retrained);
  EXPECT_EQ(db_->size(), 705u);

  std::vector<data::QuerySample> relabeled = wl_.train;
  data::RelabelExact(*db_, wl_.queries, &relabeled);
  for (size_t i = 0; i < relabeled.size(); ++i) {
    EXPECT_FLOAT_EQ(wl_.train[i].y, relabeled[i].y);
  }
}

TEST_F(UpdaterFixture, DeleteKeepsLabelsExact) {
  UpdatePolicy policy;
  policy.mae_drift_fraction = 1e9;
  UpdateManager mgr(db_.get(), &wl_, model_.get(), ctx_, policy);
  UpdateOp op;
  op.is_insert = false;
  auto live = db_->LiveIds();
  op.ids = {live[3], live[17], live[101]};
  mgr.Apply(op);
  EXPECT_EQ(db_->size(), 697u);
  std::vector<data::QuerySample> relabeled = wl_.test;
  data::RelabelExact(*db_, wl_.queries, &relabeled);
  for (size_t i = 0; i < relabeled.size(); ++i) {
    EXPECT_FLOAT_EQ(wl_.test[i].y, relabeled[i].y);
  }
}

TEST_F(UpdaterFixture, SmallDriftDoesNotRetrain) {
  UpdatePolicy policy;
  policy.mae_drift_fraction = 100.0;  // effectively never
  UpdateManager mgr(db_.get(), &wl_, model_.get(), ctx_, policy);
  UpdateOp op;
  op.is_insert = true;
  tensor::Matrix fresh = data::DrawFromSameMixture(spec_, 1, 5);
  op.vectors.emplace_back(fresh.row(0), fresh.row(0) + 6);
  UpdateResult res = mgr.Apply(op);
  EXPECT_FALSE(res.retrained);
  EXPECT_EQ(res.epochs, 0u);
}

TEST_F(UpdaterFixture, ParallelPatchMatchesSerialReference) {
  // PatchLabels shards the per-sample distance tests over the pool; every
  // sample is independent, so the result must be bit-identical to an inline
  // serial pass regardless of scheduling. The fixture's train split is
  // smaller than the sharding grain (512), which would serial-fall-back —
  // tile it past the grain so multi-core runs (the TSan CI job) actually
  // drive the parallel path.
  std::vector<data::QuerySample> parallel;
  while (parallel.size() <= 1200) {
    parallel.insert(parallel.end(), wl_.train.begin(), wl_.train.end());
  }
  std::vector<data::QuerySample> serial = parallel;
  tensor::Matrix fresh = data::DrawFromSameMixture(spec_, 8, 77);
  for (size_t r = 0; r < fresh.rows(); ++r) {
    const float* vec = fresh.row(r);
    size_t dim = wl_.queries.cols();
    for (auto& s : serial) {
      float d = data::Distance(wl_.queries.row(s.query_id), vec, dim,
                               wl_.metric);
      if (d <= s.t) s.y += 1.0f;
    }
    data::PatchLabels(wl_.queries, wl_.metric, vec, +1, &parallel);
  }
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].y, parallel[i].y) << "sample " << i;
  }
}

TEST_F(UpdaterFixture, CloneIsDeepAndPredictsIdentically) {
  std::unique_ptr<SelNetCt> clone = model_->Clone();
  data::Batch b = data::MaterializeAll(wl_.queries, wl_.test);
  tensor::Matrix original = model_->Predict(b.x, b.t);
  tensor::Matrix cloned = clone->Predict(b.x, b.t);
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original.data()[i], cloned.data()[i]) << "row " << i;
  }
  // Deep: mutating the source must not leak into the clone.
  for (const auto& p : model_->Params()) {
    p->value.Apply([](float v) { return v * 1.5f + 0.1f; });
  }
  model_->InvalidateInferenceCache();
  tensor::Matrix after = clone->Predict(b.x, b.t);
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original.data()[i], after.data()[i]) << "row " << i;
  }
}

TEST_F(UpdaterFixture, PipelineShadowRetrainMatchesDirectIncrementalFit) {
  // The shadow-retrain equivalence contract: the pipeline's clone-retrain,
  // fed the same ops, must land on exactly the parameters a direct
  // UpdateManager incremental fit produces — Clone copies the rng stream, so
  // the epoch shuffles, batches, and Adam trajectory coincide bit-for-bit.
  UpdatePolicy policy;
  policy.mae_drift_fraction = 0.05;
  policy.max_epochs = 3;
  policy.patience = 1;

  UpdateOp op;
  op.is_insert = true;
  const float* hot = wl_.queries.row(wl_.valid.front().query_id);
  for (int i = 0; i < 150; ++i) op.vectors.emplace_back(hot, hot + 6);

  // Direct path: private copies of everything, synchronous Apply.
  std::unique_ptr<SelNetCt> direct_model = model_->Clone();
  data::Database direct_db = *db_;
  data::Workload direct_wl = wl_;
  eval::TrainContext ctx;  // db/workload are bound by the manager.
  UpdateManager direct_mgr(&direct_db, &direct_wl, direct_model.get(), ctx,
                           policy);
  UpdateResult direct_res = direct_mgr.Apply(op);
  ASSERT_TRUE(direct_res.retrained);
  ASSERT_GT(direct_res.epochs, 0u);

  // Pipeline path: publish an identical clone through a one-shard router,
  // attach, submit the same op.
  serve::ShardedConfig rcfg;
  rcfg.server.dim = 6;
  rcfg.server.enable_batching = false;
  rcfg.num_shards = 1;
  serve::ShardedRegistry router(rcfg);
  serve::SelNetServer& server = router.shard(0);
  uint64_t v0 = router.Publish(std::shared_ptr<SelNetCt>(model_->Clone()));
  serve::UpdatePipelineConfig ucfg;
  ucfg.policy = policy;
  serve::LiveUpdatePipeline& pipeline =
      router.AttachUpdatePipeline(ucfg, *db_, wl_);
  ASSERT_TRUE(pipeline.Submit(op));
  pipeline.Flush();

  serve::UpdatePipelineState state = pipeline.Snapshot();
  EXPECT_EQ(state.ops_applied, 1u);
  EXPECT_EQ(state.retrains_triggered, 1u);
  EXPECT_EQ(state.epochs_run, direct_res.epochs);
  EXPECT_EQ(state.publishes, 1u);
  EXPECT_GT(state.last_published_version, v0);
  EXPECT_EQ(server.registry().VersionOf("default"),
            state.last_published_version);

  std::vector<tensor::Matrix> shadow = pipeline.ShadowParamsSnapshot();
  std::vector<ag::Var> direct_params = direct_model->Params();
  ASSERT_EQ(shadow.size(), direct_params.size());
  for (size_t p = 0; p < shadow.size(); ++p) {
    ASSERT_EQ(shadow[p].size(), direct_params[p]->value.size());
    for (size_t i = 0; i < shadow[p].size(); ++i) {
      ASSERT_EQ(shadow[p].data()[i], direct_params[p]->value.data()[i])
          << "param " << p << " element " << i;
    }
  }

  // The PUBLISHED snapshot predicts exactly like the direct fit too.
  data::Batch b = data::MaterializeAll(wl_.queries, wl_.test);
  tensor::Matrix expected = direct_model->Predict(b.x, b.t);
  auto handle = server.registry().Get("default");
  ASSERT_TRUE(handle.ok());
  tensor::Matrix served = handle.ValueOrDie().model->Predict(b.x, b.t);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected.data()[i], served.data()[i]) << "row " << i;
  }
}

TEST_F(UpdaterFixture, MassiveUpdateTriggersRetraining) {
  UpdatePolicy policy;
  policy.mae_drift_fraction = 0.05;
  policy.max_epochs = 4;
  policy.patience = 1;
  UpdateManager mgr(db_.get(), &wl_, model_.get(), ctx_, policy);
  // Insert many duplicates of one query point: its ball counts explode, so
  // validation MAE drifts far beyond 5%.
  UpdateOp op;
  op.is_insert = true;
  const float* q = wl_.queries.row(wl_.valid.front().query_id);
  for (int i = 0; i < 150; ++i) {
    op.vectors.emplace_back(q, q + 6);
  }
  UpdateResult res = mgr.Apply(op);
  EXPECT_TRUE(res.retrained);
  EXPECT_GT(res.epochs, 0u);
  // Incremental learning must not end worse than the drifted state.
  EXPECT_LE(res.mae_after, res.mae_before * 1.05 + 1e-6);
}

}  // namespace
}  // namespace selnet::core
