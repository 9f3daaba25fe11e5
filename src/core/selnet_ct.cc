#include "core/selnet_ct.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/pwl.h"
#include "nn/optimizer.h"
#include "util/check.h"
#include "util/logging.h"

namespace selnet::core {

SelNetConfig SelNetConfig::FromScale(const util::ScaleConfig& scale, size_t dim,
                                     float tmax) {
  SelNetConfig cfg;
  cfg.input_dim = dim;
  cfg.tmax = tmax;
  cfg.num_control = scale.control_points;
  switch (scale.scale) {
    case util::Scale::kSmoke:
      cfg.latent_dim = 6;
      cfg.ae_hidden = 32;
      cfg.tau_hidden = 48;
      cfg.p_hidden = 64;
      cfg.embed_h = 12;
      cfg.ae_pretrain_epochs = 4;
      break;
    case util::Scale::kDefault:
      break;
    case util::Scale::kLarge:
      cfg.latent_dim = 16;
      cfg.ae_hidden = 128;
      cfg.tau_hidden = 128;
      cfg.p_hidden = 192;
      cfg.embed_h = 32;
      break;
  }
  return cfg;
}

namespace {

// The control heads of a model: [x; z_x] in, the rest from the model's
// config.
HeadsConfig HeadsConfigFor(const SelNetConfig& cfg) {
  HeadsConfig hc;
  hc.input_dim = cfg.input_dim + cfg.latent_dim;
  hc.num_control = cfg.num_control;
  hc.tau_hidden = cfg.tau_hidden;
  hc.p_hidden = cfg.p_hidden;
  hc.embed_h = cfg.embed_h;
  hc.tmax = cfg.tmax;
  hc.query_dependent_tau = cfg.query_dependent_tau;
  hc.softmax_tau = cfg.softmax_tau;
  return hc;
}

}  // namespace

SelNetCt::SelNetCt(const SelNetConfig& cfg)
    : SelNetCt(cfg, /*random_init=*/true) {}

SelNetCt::SelNetCt(const SelNetConfig& cfg, bool random_init)
    : cfg_(cfg),
      rng_(0x5e17e7c0ull ^ (cfg.input_dim * 2654435761ull)),
      ae_(cfg.input_dim, cfg.ae_hidden, cfg.latent_dim,
          random_init ? &rng_ : nullptr) {
  SEL_CHECK_GT(cfg.input_dim, 0u);
  SEL_CHECK_GT(cfg.tmax, 0.0f);
  heads_ = ControlHeads(HeadsConfigFor(cfg), random_init ? &rng_ : nullptr);
}

bool SelNetCt::ParamFloats(const SelNetConfig& cfg, uint64_t* floats) {
  size_t heads_in = 0;
  uint64_t total = 0;
  if (__builtin_add_overflow(cfg.input_dim, cfg.latent_dim, &heads_in) ||
      !nn::Autoencoder::AddParamFloats(cfg.input_dim, cfg.ae_hidden,
                                       cfg.latent_dim, &total) ||
      !ControlHeads::AddParamFloats(HeadsConfigFor(cfg), &total)) {
    return false;
  }
  *floats = total;
  return true;
}

std::vector<ag::Var> SelNetCt::Params() const {
  std::vector<ag::Var> out = ae_.Params();
  for (const auto& p : heads_.Params()) out.push_back(p);
  return out;
}

double SelNetCt::TrainBatch(const data::Batch& batch, nn::Optimizer* opt) {
  ag::Var x = ag::Constant(batch.x);
  ag::Var t = ag::Constant(batch.t);
  ag::Var y = ag::Constant(batch.y);
  ag::Var zx = ae_.Encode(x);
  ag::Var input = ag::ConcatCols(x, zx);
  ControlHeads::Out heads = heads_.Forward(input);
  ag::Var yhat = ag::PiecewiseLinearGather(heads.tau, heads.p, t);
  ag::Var loss = ag::HuberLogLoss(yhat, y, cfg_.huber_delta, cfg_.log_eps);
  ag::Var total = ag::Add(loss, ag::Scale(ae_.ReconstructionLoss(x), cfg_.lambda_ae));
  opt->ZeroGrad();
  ag::Backward(total);
  opt->ClipGrad(5.0f);
  opt->Step();
  heads_.InvalidateInferenceCache();  // Weights moved; folded tail is stale.
  return total->value(0, 0);
}

double SelNetCt::RunEpoch(const eval::TrainContext& ctx, nn::Optimizer* opt,
                          std::vector<size_t>* order, util::Rng* rng) {
  const auto& wl = *ctx.workload;
  rng->Shuffle(order);
  double total = 0.0;
  size_t batches = 0;
  for (size_t begin = 0; begin < order->size(); begin += cfg_.batch_size) {
    size_t end = std::min(begin + cfg_.batch_size, order->size());
    std::vector<size_t> idx(order->begin() + begin, order->begin() + end);
    data::Batch batch = data::MaterializeBatch(wl.queries, wl.train, idx);
    total += TrainBatch(batch, opt);
    ++batches;
  }
  return total / std::max<size_t>(1, batches);
}

void SelNetCt::Fit(const eval::TrainContext& ctx) {
  SEL_CHECK(ctx.db != nullptr && ctx.workload != nullptr);
  const auto& wl = *ctx.workload;
  SEL_CHECK(!wl.train.empty());

  if (!ae_pretrained_) {
    // Pretrain the AE on (a subsample of) D, then keep co-training it with
    // queries through the lambda * J_AE term.
    tensor::Matrix dense = ctx.db->DenseView();
    if (dense.rows() > cfg_.ae_pretrain_rows) {
      std::vector<size_t> picks =
          rng_.SampleWithoutReplacement(dense.rows(), cfg_.ae_pretrain_rows);
      tensor::Matrix sub(picks.size(), dense.cols());
      for (size_t i = 0; i < picks.size(); ++i) {
        std::copy(dense.row(picks[i]), dense.row(picks[i]) + dense.cols(),
                  sub.row(i));
      }
      dense = std::move(sub);
    }
    double ae_loss = ae_.Pretrain(dense, cfg_.ae_pretrain_epochs, 128, 1e-3f, &rng_);
    util::LogDebug("%s AE pretrain loss %.5f", Name().c_str(), ae_loss);
    ae_pretrained_ = true;
  }

  nn::Adam opt(Params(), cfg_.lr);
  std::vector<size_t> order(wl.train.size());
  std::iota(order.begin(), order.end(), size_t{0});

  double best_mae = std::numeric_limits<double>::max();
  std::vector<tensor::Matrix> best;
  for (size_t epoch = 0; epoch < ctx.epochs; ++epoch) {
    double loss = RunEpoch(ctx, &opt, &order, &rng_);
    double mae = wl.valid.empty() ? loss : ValidationMae(wl.queries, wl.valid);
    if (mae < best_mae) {
      best_mae = mae;
      best = nn::SnapshotParams(Params());
    }
    util::LogDebug("%s epoch %zu loss %.5f val-mae %.2f", Name().c_str(), epoch,
                   loss, mae);
  }
  if (!best.empty()) {
    nn::RestoreParams(Params(), best);
    heads_.InvalidateInferenceCache();  // Fold built from last-epoch weights.
  }
}

size_t SelNetCt::IncrementalFit(const eval::TrainContext& ctx, size_t patience,
                                size_t max_epochs) {
  const auto& wl = *ctx.workload;
  nn::Adam opt(Params(), cfg_.lr * 0.5f);
  std::vector<size_t> order(wl.train.size());
  std::iota(order.begin(), order.end(), size_t{0});
  double best_mae = ValidationMae(wl.queries, wl.valid);
  std::vector<tensor::Matrix> best = nn::SnapshotParams(Params());
  size_t bad = 0, epochs = 0;
  while (bad < patience && epochs < max_epochs) {
    RunEpoch(ctx, &opt, &order, &rng_);
    ++epochs;
    double mae = ValidationMae(wl.queries, wl.valid);
    if (mae < best_mae - 1e-9) {
      best_mae = mae;
      best = nn::SnapshotParams(Params());
      bad = 0;
    } else {
      ++bad;
    }
  }
  nn::RestoreParams(Params(), best);
  heads_.InvalidateInferenceCache();  // Fold built from last-epoch weights.
  return epochs;
}

std::unique_ptr<SelNetCt> SelNetCt::Clone() const {
  std::unique_ptr<SelNetCt> clone(new SelNetCt(cfg_, /*random_init=*/false));
  std::vector<ag::Var> src = Params();
  std::vector<ag::Var> dst = clone->Params();
  SEL_CHECK_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i) dst[i]->value = src[i]->value;
  // Copy the source's rng stream so the clone's continued training is
  // bit-identical to what the source would have run (the shadow-retrain
  // equivalence contract).
  clone->rng_ = rng_;
  clone->ae_pretrained_ = ae_pretrained_;
  clone->InvalidateInferenceCache();
  return clone;
}

tensor::Matrix SelNetCt::Predict(const tensor::Matrix& x,
                                 const tensor::Matrix& t) {
  SEL_CHECK_EQ(x.rows(), t.rows());
  tensor::Matrix out(x.rows(), 1);
  constexpr size_t kChunk = 1024;
  for (size_t begin = 0; begin < x.rows(); begin += kChunk) {
    size_t end = std::min(begin + kChunk, x.rows());
    ag::Var xb = ag::Constant(x.RowSlice(begin, end));
    ag::Var tb = ag::Constant(t.RowSlice(begin, end));
    ag::Var input = ag::ConcatCols(xb, ae_.Encode(xb));
    ControlHeads::Out heads = heads_.ForwardInference(input);
    ag::Var yhat = ag::PiecewiseLinearGather(heads.tau, heads.p, tb);
    for (size_t r = begin; r < end; ++r) out(r, 0) = yhat->value(r - begin, 0);
  }
  return out;
}

void SelNetCt::ControlPoints(const float* query, std::vector<float>* tau,
                             std::vector<float>* p) {
  tensor::Matrix x(1, cfg_.input_dim);
  std::copy(query, query + cfg_.input_dim, x.row(0));
  ag::Var xb = ag::Constant(std::move(x));
  ag::Var input = ag::ConcatCols(xb, ae_.Encode(xb));
  ControlHeads::Out heads = heads_.ForwardInference(input);
  size_t knots = heads.tau->cols();
  tau->assign(heads.tau->value.row(0), heads.tau->value.row(0) + knots);
  p->assign(heads.p->value.row(0), heads.p->value.row(0) + knots);
}

std::vector<float> SelNetCt::SweepEstimate(const float* x, const float* ts,
                                           size_t count) {
  std::vector<float> tau, p;
  ControlPoints(x, &tau, &p);
  PiecewiseLinear pwl(std::move(tau), std::move(p));
  std::vector<float> out(count);
  for (size_t i = 0; i < count; ++i) out[i] = pwl(ts[i]);
  return out;
}

double SelNetCt::ValidationMae(const tensor::Matrix& queries,
                               const std::vector<data::QuerySample>& samples) {
  if (samples.empty()) return 0.0;
  data::Batch batch = data::MaterializeAll(queries, samples);
  tensor::Matrix yhat = Predict(batch.x, batch.t);
  double total = 0.0;
  for (size_t i = 0; i < samples.size(); ++i) {
    total += std::fabs(static_cast<double>(yhat(i, 0)) - batch.y(i, 0));
  }
  return total / static_cast<double>(samples.size());
}

}  // namespace selnet::core
