#pragma once

#include <atomic>
#include <memory>

#include "nn/mlp.h"

/// \file control_heads.h
/// \brief Query-dependent control point generation (Section 5.2, Figure 1).
///
/// Two heads consume the AE-enhanced input [x; z_x]:
///  * tau head: an FFN emits L+1 raw increments; `NormL2Rows` maps them onto
///    the simplex (strictly positive), scaling by tmax and prefix-summing
///    yields strictly increasing knots tau_1..tau_{L+1} with tau_{L+1}=tmax;
///    a zero column is prepended for tau_0.
///  * p head ("model M"): a wide FFN emits L+2 embeddings h_i of width H; per
///    position linear heads (`GroupedLinear`) + ReLU give non-negative
///    increments k_i; prefix sums give the monotone knot values p_i.
/// Monotonicity in t therefore holds by construction (Lemma 1).

namespace selnet::core {

/// \brief Shape/behaviour parameters of one pair of control-point heads.
struct HeadsConfig {
  size_t input_dim = 0;     ///< dim([x; z_x]).
  size_t num_control = 16;  ///< L; the function has L+2 knots.
  size_t tau_hidden = 96;   ///< tau FFN hidden width (2 hidden layers).
  size_t p_hidden = 128;    ///< p FFN hidden width (4 hidden layers).
  size_t embed_h = 24;      ///< Embedding width H per control point (paper: 100).
  float tmax = 1.0f;        ///< Domain upper end.
  /// SelNet-ad-ct ablation: when false the tau FFN sees a constant vector, so
  /// knot positions are shared across queries (Section 7.4).
  bool query_dependent_tau = true;
  /// Ablation of the Section 5.2 design choice: replace NormL2 with a row
  /// softmax when mapping raw tau increments onto the simplex. The paper
  /// argues softmax's exponential amplifies small input changes and
  /// highlights single entries instead of partitioning the range; this flag
  /// lets the claim be measured (bench/ablation_tau_normalizer).
  bool softmax_tau = false;
};

/// \brief The (tau, p) generator for one partition's local model.
class ControlHeads : public nn::Module {
 public:
  ControlHeads() = default;
  /// A null `rng` leaves the weights zero instead of drawing them (the
  /// model loader overwrites every parameter; see core/model_io).
  ControlHeads(const HeadsConfig& cfg, util::Rng* rng);

  // Movable (the fold cache is dropped, not moved — it is rebuilt lazily);
  // the atomic generation counter makes the defaults undeletable.
  ControlHeads(ControlHeads&& other) noexcept;
  ControlHeads& operator=(ControlHeads&& other) noexcept;

  struct Out {
    ag::Var tau;  ///< B x (L+2), non-decreasing rows, tau_0=0, tau_{L+1}=tmax.
    ag::Var p;    ///< B x (L+2), non-decreasing, non-negative rows.
  };

  /// \brief Generate control points for a batch of enhanced inputs.
  Out Forward(const ag::Var& input) const;

  /// \brief Inference-only forward with the p-head tail fused.
  ///
  /// The p FFN's output layer (p_hidden -> (L+2)*H) is linear and feeds
  /// straight into the linear per-position GroupedLinear heads, so at
  /// inference the pair collapses exactly into one p_hidden x (L+2) affine
  /// map. The folded matrix is cached (it costs one pass over the big weight
  /// matrix to build) and rebuilt lazily after InvalidateInferenceCache(),
  /// which must be called whenever the underlying parameters change — the
  /// training loop and model loading do this. Numerically the fold
  /// reassociates the sum over the hidden/embed axes, so results differ from
  /// Forward() by normal float rounding; within this method results are
  /// independent of batch size. Not usable for training (no gradient flows
  /// to the unfused parameters).
  Out ForwardInference(const ag::Var& input) const;

  /// \brief Drop the cached folded tail AND every parameter's packed-weight
  /// cache; the next ForwardInference rebuilds both from the current values.
  /// One generation discipline covers both caches: anything that must
  /// invalidate the fold (optimizer steps via the training loops,
  /// core::LoadModel, ModelRegistry::PublishFromFile) thereby also
  /// invalidates the packs. Thread-safe.
  void InvalidateInferenceCache() const;

  std::vector<ag::Var> Params() const override;

  /// \brief Add the floats the heads of `cfg` hold to `*total`, without
  /// building them; false on 64-bit overflow.
  static bool AddParamFloats(const HeadsConfig& cfg, uint64_t* total);

  const HeadsConfig& config() const { return cfg_; }

 private:
  /// Fused (p_net output layer . GroupedLinear) affine map for inference.
  /// Held as constant Vars (not raw Matrices) so the SAME tape leaf is
  /// reused across ForwardInference calls: its packed-weight cache
  /// (ag::Node::pack_cache) then persists for the lifetime of the fold —
  /// pack once per weight version, exactly like the fold itself.
  struct FoldedTail {
    ag::Var wf;  ///< p_hidden x (L+2).
    ag::Var bf;  ///< 1 x (L+2).
    /// fold_gen_ value sampled before the weights were read; the hit path in
    /// GetFoldedTail only serves a fold whose generation matches, so a
    /// builder that raced an InvalidateInferenceCache() can never make a
    /// stale fold servable even if it wins the publish race.
    uint64_t generation = 0;
  };

  std::shared_ptr<const FoldedTail> GetFoldedTail() const;

  /// Shared tau-head path (simplex map, scale, cumsum, zero knot) used by
  /// both Forward and ForwardInference so the two cannot drift.
  ag::Var ForwardTau(const ag::Var& input) const;

  HeadsConfig cfg_;
  nn::Mlp tau_net_;
  nn::Mlp p_net_;
  ag::Var pw_;  ///< GroupedLinear weights (L+2) x H.
  ag::Var pb_;  ///< GroupedLinear bias 1 x (L+2).

  /// Accessed via std::atomic_load/atomic_store: concurrent ForwardInference
  /// calls may race to build the cache (the build is a pure function of the
  /// parameters, so duplicate builds are harmless). `fold_gen_` guards
  /// against the lost-invalidation race: a build that started before an
  /// InvalidateInferenceCache() observes the generation bump and does not
  /// publish its now-stale fold.
  mutable std::shared_ptr<const FoldedTail> fold_cache_;
  mutable std::atomic<uint64_t> fold_gen_{0};
};

}  // namespace selnet::core
