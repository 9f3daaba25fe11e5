#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/control_heads.h"
#include "core/updater.h"
#include "eval/estimator.h"
#include "nn/autoencoder.h"
#include "util/env.h"

/// \file selnet_ct.h
/// \brief SelNet-ct: the single-partition SelNet model (Sections 5.1-5.2).
///
/// Architecture (Figure 1): an autoencoder supplies a latent code z_x; the
/// enhanced input [x; z_x] drives the tau and p control-point heads; the
/// threshold t is evaluated through the learned piece-wise linear function
/// (Equation 1). Training minimizes Huber-log estimation loss plus
/// lambda * J_AE (Equation 4), keeping the best-on-validation parameters.

namespace selnet::core {

/// \brief Hyper-parameters for SelNet models.
struct SelNetConfig {
  size_t input_dim = 0;     ///< Data dimensionality d (required).
  size_t latent_dim = 12;   ///< AE bottleneck width.
  size_t ae_hidden = 64;    ///< AE hidden width.
  size_t num_control = 16;  ///< L (paper default 50).
  size_t tau_hidden = 96;
  size_t p_hidden = 128;
  size_t embed_h = 24;      ///< |h_i| (paper: 100).
  float tmax = 1.0f;        ///< Required: PWL domain end.
  float lambda_ae = 0.05f;  ///< Weight of J_AE in Equation 4.
  float huber_delta = 1.345f;
  float log_eps = 1.0f;     ///< Pad inside the log of the loss.
  float lr = 1e-3f;
  size_t batch_size = 256;
  size_t ae_pretrain_epochs = 8;
  size_t ae_pretrain_rows = 4000;  ///< Subsample of D for AE pretraining.
  bool query_dependent_tau = true; ///< false = SelNet-ad-ct ablation.
  bool softmax_tau = false;        ///< Section 5.2 ablation: softmax vs NormL2.

  /// \brief Reasonable defaults derived from the experiment scale.
  static SelNetConfig FromScale(const util::ScaleConfig& scale, size_t dim,
                                float tmax);
};

/// \brief The non-partitioned SelNet estimator.
class SelNetCt : public eval::Estimator, public eval::SweepCapable,
                 public nn::Module, public IncrementalModel {
 public:
  explicit SelNetCt(const SelNetConfig& cfg);

  std::string Name() const override {
    return cfg_.query_dependent_tau ? "SelNet-ct" : "SelNet-ad-ct";
  }
  bool IsConsistent() const override { return true; }

  void Fit(const eval::TrainContext& ctx) override;

  tensor::Matrix Predict(const tensor::Matrix& x,
                         const tensor::Matrix& t) override;

  /// \brief Continue training on (possibly relabelled) workload data until
  /// validation MAE fails to improve for `patience` consecutive epochs
  /// (the incremental learning of Section 5.4). Returns epochs run.
  size_t IncrementalFit(const eval::TrainContext& ctx, size_t patience = 3,
                        size_t max_epochs = 50);

  /// \brief Deep copy: same config, parameter values, rng state and
  /// pretraining flag, but entirely fresh autograd leaves — the clone and the
  /// source share no mutable state, so one may train while the other serves.
  /// The clone's inference/pack caches start invalidated.
  std::unique_ptr<SelNetCt> Clone() const;

  /// \brief Learned control points for a single query (Figure 4).
  void ControlPoints(const float* query, std::vector<float>* tau,
                     std::vector<float>* p);

  /// \brief SweepCapable: one control-point evaluation, then one PWL lookup
  /// per threshold. Bit-identical to Predict row expansion (the inference
  /// fold is batch-size invariant and PiecewiseLinear mirrors the gather
  /// op's interpolation arithmetic exactly).
  std::vector<float> SweepEstimate(const float* x, const float* ts,
                                   size_t count) override;

  /// \brief SweepCapable: the estimate-vs-threshold curve IS the control
  /// points, so the serving layer may cache them per (version, query).
  bool SupportsSweepCurve() const override { return true; }
  bool SweepCurve(const float* x, std::vector<float>* tau,
                  std::vector<float>* p) override {
    ControlPoints(x, tau, p);
    return true;
  }

  std::vector<ag::Var> Params() const override;

  /// \brief Floats in the parameters a model of `cfg` holds, counted without
  /// building it (the loader bounds an untrusted config with it before
  /// allocating); false if the count overflows 64 bits.
  static bool ParamFloats(const SelNetConfig& cfg, uint64_t* floats);

  /// \brief Must be called after mutating parameter values outside the
  /// training loop (e.g. loading weights from disk) so the cached inference
  /// fusion AND the packed-weight caches are rebuilt. The training loop
  /// invalidates automatically.
  void InvalidateInferenceCache() const {
    heads_.InvalidateInferenceCache();
    ag::InvalidatePackCaches(ae_.Params());
  }

  const SelNetConfig& config() const { return cfg_; }

  /// \brief Mean absolute error on a sample set (used for model selection
  /// and the update-trigger check of Section 5.4).
  double ValidationMae(const tensor::Matrix& queries,
                       const std::vector<data::QuerySample>& samples);

  // IncrementalModel:
  double CurrentValidationMae(const eval::TrainContext& ctx) override {
    return ValidationMae(ctx.workload->queries, ctx.workload->valid);
  }
  size_t RunIncrementalFit(const eval::TrainContext& ctx, size_t patience,
                           size_t max_epochs) override {
    return IncrementalFit(ctx, patience, max_epochs);
  }
  std::shared_ptr<eval::Estimator> CloneServable() const override {
    return Clone();
  }

 private:
  friend class ModelLoader;  // core/model_io: the no-init constructor below.

  /// With `random_init` false every parameter starts zero and the rng makes
  /// no draws: the loader overwrites all of them from the file, so the
  /// ~150k init draws and their matrices would be thrown away.
  SelNetCt(const SelNetConfig& cfg, bool random_init);

  /// One optimizer step on a batch; returns the loss value.
  double TrainBatch(const data::Batch& batch, nn::Optimizer* opt);
  /// Run one epoch over shuffled training samples.
  double RunEpoch(const eval::TrainContext& ctx, nn::Optimizer* opt,
                  std::vector<size_t>* order, util::Rng* rng);

  SelNetConfig cfg_;
  util::Rng rng_;
  nn::Autoencoder ae_;
  ControlHeads heads_;
  bool ae_pretrained_ = false;
};

}  // namespace selnet::core
