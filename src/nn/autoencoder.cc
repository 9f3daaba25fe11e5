#include "nn/autoencoder.h"

#include <numeric>

#include "util/check.h"

namespace selnet::nn {

Autoencoder::Autoencoder(size_t input_dim, size_t hidden, size_t latent_dim,
                         util::Rng* rng)
    : encoder_({input_dim, hidden, latent_dim}, rng, Activation::kRelu,
               Activation::kTanh),
      decoder_({latent_dim, hidden, input_dim}, rng) {}

bool Autoencoder::AddParamFloats(uint64_t input_dim, uint64_t hidden,
                                 uint64_t latent_dim, uint64_t* total) {
  // The encoder and decoder the constructor above builds.
  return Mlp::AddParamFloats({input_dim, hidden, latent_dim}, total) &&
         Mlp::AddParamFloats({latent_dim, hidden, input_dim}, total);
}

ag::Var Autoencoder::ReconstructionLoss(const ag::Var& x) const {
  ag::Var recon = Decode(Encode(x));
  return ag::MseLoss(recon, x);
}

double Autoencoder::Pretrain(const tensor::Matrix& data, size_t epochs,
                             size_t batch_size, float lr, util::Rng* rng) {
  SEL_CHECK_EQ(data.cols(), input_dim());
  Adam opt(Params(), lr);
  std::vector<size_t> order(data.rows());
  std::iota(order.begin(), order.end(), size_t{0});
  double last_epoch_loss = 0.0;
  for (size_t e = 0; e < epochs; ++e) {
    rng->Shuffle(&order);
    double total = 0.0;
    size_t batches = 0;
    for (size_t begin = 0; begin < order.size(); begin += batch_size) {
      size_t end = std::min(begin + batch_size, order.size());
      tensor::Matrix batch(end - begin, data.cols());
      for (size_t i = begin; i < end; ++i) {
        std::copy(data.row(order[i]), data.row(order[i]) + data.cols(),
                  batch.row(i - begin));
      }
      ag::Var x = ag::Constant(std::move(batch));
      opt.ZeroGrad();
      ag::Var loss = ReconstructionLoss(x);
      ag::Backward(loss);
      opt.Step();
      total += loss->value(0, 0);
      ++batches;
    }
    last_epoch_loss = total / std::max<size_t>(1, batches);
  }
  return last_epoch_loss;
}

std::vector<ag::Var> Autoencoder::Params() const {
  std::vector<ag::Var> out = encoder_.Params();
  for (const auto& p : decoder_.Params()) out.push_back(p);
  return out;
}

}  // namespace selnet::nn
