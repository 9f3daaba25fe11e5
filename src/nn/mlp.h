#pragma once

#include <cstdint>
#include <vector>

#include "nn/linear.h"

/// \file mlp.h
/// \brief Multi-layer perceptron (the paper's FFN building block).

namespace selnet::nn {

/// \brief Hidden-layer activation choice.
enum class Activation { kRelu, kTanh, kSigmoid, kSoftplus, kNone };

/// \brief Feed-forward network: Linear + activation per hidden layer, linear
/// output layer (no activation unless `output_activation` is set).
class Mlp : public Module {
 public:
  Mlp() = default;

  /// \param dims layer widths, e.g. {in, 512, 512, out}
  /// \param rng weight-init source; null leaves every weight zero (Linear).
  Mlp(const std::vector<size_t>& dims, util::Rng* rng,
      Activation hidden = Activation::kRelu,
      Activation output_activation = Activation::kNone);

  ag::Var Forward(const ag::Var& x) const;

  /// \brief Forward through every layer but the last: the activated input the
  /// output layer would see. Lets callers fuse the (linear) output layer with
  /// downstream linear ops at inference time.
  ag::Var ForwardHidden(const ag::Var& x) const;

  /// \brief The final (output) layer.
  const Linear& output_layer() const { return layers_.back(); }

  /// \brief Activation applied after the output layer (kNone = linear).
  Activation output_activation() const { return output_; }

  std::vector<ag::Var> Params() const override;

  /// \brief Add the floats an Mlp with these layer widths holds (in * out
  /// weights and out biases per layer) to `*total`, without building it;
  /// false if the sum overflows 64 bits.
  static bool AddParamFloats(const std::vector<uint64_t>& dims,
                             uint64_t* total);

  size_t in_dim() const { return layers_.front().in_dim(); }
  size_t out_dim() const { return layers_.back().out_dim(); }

 private:
  std::vector<Linear> layers_;
  Activation hidden_ = Activation::kRelu;
  Activation output_ = Activation::kNone;
};

/// \brief Apply an Activation to a Var (kNone is identity).
ag::Var Activate(const ag::Var& x, Activation act);

}  // namespace selnet::nn
