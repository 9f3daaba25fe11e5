#include "nn/linear.h"

namespace selnet::nn {

Linear::Linear(size_t in, size_t out, util::Rng* rng, bool he_init) {
  tensor::Matrix w = rng == nullptr ? tensor::Matrix(in, out)
                     : he_init      ? HeNormal(in, out, rng)
                                    : XavierUniform(in, out, rng);
  w_ = ag::Param(std::move(w));
  b_ = ag::Param(tensor::Matrix(1, out));
}

ag::Var Linear::Forward(const ag::Var& x) const {
  return ag::AddRowBroadcast(ag::MatMul(x, w_), b_);
}

}  // namespace selnet::nn
