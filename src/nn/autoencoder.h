#pragma once

#include "nn/mlp.h"
#include "nn/optimizer.h"

/// \file autoencoder.h
/// \brief The latent-representation autoencoder of SelNet's Figure 1.
///
/// SelNet augments the query object x with a latent code z_x learned by an
/// autoencoder pretrained on the database D and co-trained with queries
/// (the lambda * J_AE term of Equation 4). The AE exposes both the encoder
/// forward (for z_x) and the reconstruction loss (for co-training).

namespace selnet::nn {

/// \brief Symmetric MLP autoencoder.
class Autoencoder : public Module {
 public:
  Autoencoder() = default;

  /// \param input_dim data dimensionality d
  /// \param hidden width of the hidden layers
  /// \param latent_dim width of the bottleneck z_x
  /// \param rng weight-init source; null leaves every weight zero (Linear)
  Autoencoder(size_t input_dim, size_t hidden, size_t latent_dim, util::Rng* rng);

  /// \brief Encode: (B x d) -> (B x latent).
  ag::Var Encode(const ag::Var& x) const { return encoder_.Forward(x); }

  /// \brief Decode: (B x latent) -> (B x d).
  ag::Var Decode(const ag::Var& z) const { return decoder_.Forward(z); }

  /// \brief Reconstruction MSE for a batch (1x1).
  ag::Var ReconstructionLoss(const ag::Var& x) const;

  /// \brief Pretrain on row-batches of `data` with Adam.
  ///
  /// \return final epoch mean reconstruction loss.
  double Pretrain(const tensor::Matrix& data, size_t epochs, size_t batch_size,
                  float lr, util::Rng* rng);

  std::vector<ag::Var> Params() const override;

  /// \brief Add the floats an Autoencoder of these widths holds to
  /// `*total`, without building it; false on 64-bit overflow.
  static bool AddParamFloats(uint64_t input_dim, uint64_t hidden,
                             uint64_t latent_dim, uint64_t* total);

  size_t latent_dim() const { return encoder_.out_dim(); }
  size_t input_dim() const { return encoder_.in_dim(); }

 private:
  Mlp encoder_;
  Mlp decoder_;
};

}  // namespace selnet::nn
