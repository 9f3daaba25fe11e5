#include "nn/mlp.h"

#include "util/check.h"

namespace selnet::nn {

ag::Var Activate(const ag::Var& x, Activation act) {
  switch (act) {
    case Activation::kRelu: return ag::Relu(x);
    case Activation::kTanh: return ag::Tanh(x);
    case Activation::kSigmoid: return ag::Sigmoid(x);
    case Activation::kSoftplus: return ag::Softplus(x);
    case Activation::kNone: return x;
  }
  return x;
}

Mlp::Mlp(const std::vector<size_t>& dims, util::Rng* rng, Activation hidden,
         Activation output_activation)
    : hidden_(hidden), output_(output_activation) {
  SEL_CHECK_GE(dims.size(), 2u);
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    bool he = (hidden == Activation::kRelu);
    layers_.emplace_back(dims[i], dims[i + 1], rng, he);
  }
}

bool Mlp::AddParamFloats(const std::vector<uint64_t>& dims, uint64_t* total) {
  // One Linear(dims[i], dims[i + 1]) per layer, as the constructor builds.
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    uint64_t weights = 0;
    if (__builtin_mul_overflow(dims[i], dims[i + 1], &weights) ||
        __builtin_add_overflow(*total, weights, total) ||
        __builtin_add_overflow(*total, dims[i + 1], total)) {
      return false;
    }
  }
  return true;
}

ag::Var Mlp::Forward(const ag::Var& x) const {
  SEL_CHECK(!layers_.empty());
  ag::Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) {
      h = Activate(h, hidden_);
    } else {
      h = Activate(h, output_);
    }
  }
  return h;
}

ag::Var Mlp::ForwardHidden(const ag::Var& x) const {
  SEL_CHECK(!layers_.empty());
  ag::Var h = x;
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    h = Activate(layers_[i].Forward(h), hidden_);
  }
  return h;
}

std::vector<ag::Var> Mlp::Params() const {
  std::vector<ag::Var> out;
  out.reserve(layers_.size() * 2);
  for (const auto& l : layers_) {
    for (const auto& p : l.Params()) out.push_back(p);
  }
  return out;
}

}  // namespace selnet::nn
