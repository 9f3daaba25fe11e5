#pragma once

#include "nn/init.h"
#include "nn/module.h"

/// \file linear.h
/// \brief Fully-connected layer y = xW + b.

namespace selnet::nn {

/// \brief Dense affine layer. Weights are (in x out); inputs are (B x in).
class Linear : public Module {
 public:
  Linear() = default;
  /// A null `rng` skips the random draw and leaves the weight zero — for
  /// model loaders that overwrite every parameter right after construction.
  Linear(size_t in, size_t out, util::Rng* rng, bool he_init = true);

  /// \brief Forward pass: (B x in) -> (B x out).
  ag::Var Forward(const ag::Var& x) const;

  std::vector<ag::Var> Params() const override { return {w_, b_}; }

  size_t in_dim() const { return w_->rows(); }
  size_t out_dim() const { return w_->cols(); }

  const ag::Var& weight() const { return w_; }
  const ag::Var& bias() const { return b_; }

 private:
  ag::Var w_;
  ag::Var b_;
};

}  // namespace selnet::nn
