#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>

#include "nn/autoencoder.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "tensor/blas.h"

namespace selnet::nn {
namespace {

using tensor::Matrix;

TEST(LinearTest, ShapesAndForward) {
  util::Rng rng(1);
  Linear lin(4, 3, &rng);
  EXPECT_EQ(lin.in_dim(), 4u);
  EXPECT_EQ(lin.out_dim(), 3u);
  ag::Var x = ag::Constant(Matrix::Ones(5, 4));
  ag::Var y = lin.Forward(x);
  EXPECT_EQ(y->rows(), 5u);
  EXPECT_EQ(y->cols(), 3u);
}

TEST(LinearTest, BiasIsApplied) {
  util::Rng rng(2);
  Linear lin(2, 2, &rng);
  lin.weight()->value.Fill(0.0f);
  lin.bias()->value(0, 0) = 3.0f;
  lin.bias()->value(0, 1) = -1.0f;
  ag::Var y = lin.Forward(ag::Constant(Matrix::Ones(1, 2)));
  EXPECT_FLOAT_EQ(y->value(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y->value(0, 1), -1.0f);
}

TEST(MlpTest, ParamCountMatchesArchitecture) {
  util::Rng rng(3);
  Mlp mlp({10, 20, 5}, &rng);
  // (10*20 + 20) + (20*5 + 5) = 220 + 105.
  EXPECT_EQ(mlp.NumParams(), 325u);
  EXPECT_EQ(mlp.Params().size(), 4u);
}

TEST(MlpTest, OutputActivationApplies) {
  util::Rng rng(4);
  Mlp mlp({3, 8, 2}, &rng, Activation::kRelu, Activation::kSoftplus);
  ag::Var y = mlp.Forward(ag::Constant(Matrix::Gaussian(10, 3, &rng)));
  for (size_t i = 0; i < y->value.size(); ++i) {
    EXPECT_GT(y->value.data()[i], 0.0f);  // softplus is strictly positive
  }
}

// Optimizers must drive a convex quadratic to its minimum.
class OptimizerConvergence : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerConvergence, MinimizesQuadratic) {
  // minimize ||p - c||^2 for fixed c.
  util::Rng rng(5);
  Matrix target = Matrix::Uniform(3, 3, &rng, -2.0f, 2.0f);
  ag::Var p = ag::Param(Matrix::Zeros(3, 3));
  std::unique_ptr<Optimizer> opt;
  switch (GetParam()) {
    case 0: opt = std::make_unique<Sgd>(std::vector<ag::Var>{p}, 0.1f); break;
    case 1: opt = std::make_unique<Sgd>(std::vector<ag::Var>{p}, 0.05f, 0.9f); break;
    default: opt = std::make_unique<Adam>(std::vector<ag::Var>{p}, 0.1f); break;
  }
  for (int i = 0; i < 300; ++i) {
    opt->ZeroGrad();
    ag::Var loss = ag::MseLoss(p, ag::Constant(target));
    ag::Backward(loss);
    opt->Step();
  }
  for (size_t i = 0; i < target.size(); ++i) {
    EXPECT_NEAR(p->value.data()[i], target.data()[i], 0.05f);
  }
}

INSTANTIATE_TEST_SUITE_P(SgdMomentumAdam, OptimizerConvergence,
                         ::testing::Values(0, 1, 2));

TEST(OptimizerTest, ClipGradBoundsEntries) {
  ag::Var p = ag::Param(Matrix::Full(1, 1, 100.0f));
  Adam opt({p}, 0.1f);
  opt.ZeroGrad();
  ag::Var loss = ag::MseLoss(p, ag::Constant(Matrix::Zeros(1, 1)));
  ag::Backward(loss);
  EXPECT_GT(p->grad(0, 0), 5.0f);
  opt.ClipGrad(5.0f);
  EXPECT_FLOAT_EQ(p->grad(0, 0), 5.0f);
}

TEST(OptimizerTest, AdamWeightDecayShrinksWeights) {
  ag::Var p = ag::Param(Matrix::Full(1, 1, 1.0f));
  Adam opt({p}, 0.01f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.1f);
  for (int i = 0; i < 50; ++i) {
    opt.ZeroGrad();  // zero gradient; only decay acts
    opt.Step();
  }
  EXPECT_LT(p->value(0, 0), 1.0f);
}

TEST(AutoencoderTest, PretrainReducesReconstructionLoss) {
  util::Rng rng(6);
  // Data on a 2-D linear subspace of R^6: easily compressible.
  Matrix basis = Matrix::Gaussian(2, 6, &rng);
  Matrix coef = Matrix::Gaussian(200, 2, &rng);
  Matrix data = tensor::MatMul(coef, basis);
  Autoencoder ae(6, 16, 2, &rng);
  double before = ae.ReconstructionLoss(ag::Constant(data))->value(0, 0);
  ae.Pretrain(data, /*epochs=*/30, /*batch_size=*/32, 3e-3f, &rng);
  double after = ae.ReconstructionLoss(ag::Constant(data))->value(0, 0);
  EXPECT_LT(after, before * 0.5);
}

TEST(AutoencoderTest, EncodeShape) {
  util::Rng rng(7);
  Autoencoder ae(5, 8, 3, &rng);
  ag::Var z = ae.Encode(ag::Constant(Matrix::Ones(4, 5)));
  EXPECT_EQ(z->rows(), 4u);
  EXPECT_EQ(z->cols(), 3u);
  EXPECT_EQ(ae.latent_dim(), 3u);
}

TEST(SerializeTest, RoundTrip) {
  util::Rng rng(8);
  Mlp a({4, 6, 2}, &rng);
  Mlp b({4, 6, 2}, &rng);  // different init
  std::string path = ::testing::TempDir() + "/params.bin";
  ASSERT_TRUE(SaveParams(a.Params(), path).ok());
  ASSERT_TRUE(LoadParams(path, b.Params()).ok());
  auto pa = a.Params(), pb = b.Params();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (size_t j = 0; j < pa[i]->value.size(); ++j) {
      EXPECT_FLOAT_EQ(pa[i]->value.data()[j], pb[i]->value.data()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchRejected) {
  util::Rng rng(9);
  Mlp a({4, 6, 2}, &rng);
  Mlp b({4, 7, 2}, &rng);
  std::string path = ::testing::TempDir() + "/params2.bin";
  ASSERT_TRUE(SaveParams(a.Params(), path).ok());
  util::Status st = LoadParams(path, b.Params());
  EXPECT_FALSE(st.ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsIOError) {
  util::Rng rng(10);
  Mlp a({2, 2}, &rng);
  util::Status st = LoadParams("/nonexistent/dir/params.bin", a.Params());
  EXPECT_EQ(st.code(), util::StatusCode::kIoError);
}

TEST(SerializeTest, FlippedByteFailsWithParameterAndOffset) {
  util::Rng rng(11);
  Mlp a({4, 6, 2}, &rng);
  Mlp b({4, 6, 2}, &rng);
  std::string path = ::testing::TempDir() + "/params_flip.bin";
  ASSERT_TRUE(SaveParams(a.Params(), path).ok());

  // Flip one bit inside parameter 0's float data. Layout: 4 magic + 4
  // version + 8 count = 16, then parameter 0's record (16-byte shape header
  // + floats + crc) starting at offset 16.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 16 + 16 + 2, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);

  util::Status st = LoadParams(path, b.Params());
  EXPECT_EQ(st.code(), util::StatusCode::kIoError);
  // The error localizes the damage: path, parameter index, byte offset.
  EXPECT_NE(st.message().find(path), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("checksum mismatch for parameter 0"),
            std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("byte offset 16"), std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

TEST(SerializeTest, TruncatedChecksumIsIOError) {
  util::Rng rng(12);
  Mlp a({3, 2}, &rng);
  std::string path = ::testing::TempDir() + "/params_trunc.bin";
  ASSERT_TRUE(SaveParams(a.Params(), path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 2), 0);  // Clip the final CRC.
  util::Status st = LoadParams(path, a.Params());
  EXPECT_EQ(st.code(), util::StatusCode::kIoError);
  EXPECT_NE(st.message().find("truncated"), std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

TEST(SerializeTest, Version1FilesWithoutChecksumsStillLoad) {
  util::Rng rng(13);
  Mlp a({4, 6, 2}, &rng);
  Mlp b({4, 6, 2}, &rng);  // different init
  std::string path = ::testing::TempDir() + "/params_v1.bin";
  // Hand-write the pre-checksum v1 format.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("SELN", 1, 4, f);
  uint32_t version = 1;
  std::fwrite(&version, sizeof(version), 1, f);
  auto pa = a.Params();
  uint64_t count = pa.size();
  std::fwrite(&count, sizeof(count), 1, f);
  for (const auto& p : pa) {
    uint64_t rows = p->value.rows(), cols = p->value.cols();
    std::fwrite(&rows, sizeof(rows), 1, f);
    std::fwrite(&cols, sizeof(cols), 1, f);
    std::fwrite(p->value.data(), sizeof(float), p->value.size(), f);
  }
  std::fclose(f);

  ASSERT_TRUE(LoadParams(path, b.Params()).ok());
  auto pb = b.Params();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (size_t j = 0; j < pa[i]->value.size(); ++j) {
      EXPECT_EQ(pa[i]->value.data()[j], pb[i]->value.data()[j]);
    }
  }
  std::remove(path.c_str());
}

// ----------------------------------------------- packed-weight staleness ---

// Multi-row forwards (>= tensor::kGemmPrepackedMinRows rows) run against
// cached packed weight panels; these tests pin the invalidation contract at
// every value-mutation point. The reference is a raw Gemm on the current
// weights, which is bit-identical to the prepacked path by the kernel
// contract — any stale pack shows up as an exact-inequality failure.
Matrix LinearReference(const Linear& lin, const Matrix& x) {
  Matrix out(x.rows(), lin.out_dim());
  tensor::Gemm(x, false, lin.weight()->value, false, 1.0f, 0.0f, &out);
  tensor::AddRowVectorInPlace(&out, lin.bias()->value);
  return out;
}

void ExpectExactlyEqual(const Matrix& a, const Matrix& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "flat index " << i;
  }
}

TEST(PackInvalidationTest, OptimizerStepDropsStalePacks) {
  util::Rng rng(21);
  Linear lin(8, 8, &rng);
  Matrix x = Matrix::Gaussian(tensor::kGemmPackMinRows, 8, &rng);
  Matrix before = lin.Forward(ag::Constant(x))->value;  // Warms the pack.
  ExpectExactlyEqual(before, LinearReference(lin, x));

  Sgd sgd(lin.Params(), /*lr=*/0.5f);
  for (const auto& p : lin.Params()) {
    p->EnsureGrad();
    p->grad.Fill(1.0f);
  }
  sgd.Step();
  Matrix after_sgd = lin.Forward(ag::Constant(x))->value;
  ExpectExactlyEqual(after_sgd, LinearReference(lin, x));

  Adam adam(lin.Params(), /*lr=*/0.1f);
  for (const auto& p : lin.Params()) p->grad.Fill(0.5f);
  adam.Step();
  Matrix after_adam = lin.Forward(ag::Constant(x))->value;
  ExpectExactlyEqual(after_adam, LinearReference(lin, x));

  // Sanity: the steps actually moved the weights.
  EXPECT_NE(before(0, 0), after_sgd(0, 0));
  EXPECT_NE(after_sgd(0, 0), after_adam(0, 0));
}

TEST(PackInvalidationTest, LoadParamsDropsStalePacks) {
  util::Rng rng(22);
  Linear lin(6, 10, &rng);
  Linear other(6, 10, &rng);  // Different init, same shapes.
  Matrix x = Matrix::Gaussian(tensor::kGemmPackMinRows, 6, &rng);
  Matrix before = lin.Forward(ag::Constant(x))->value;  // Warms the pack.

  const char* path = "pack_invalidation_params.bin";
  ASSERT_TRUE(SaveParams(other.Params(), path).ok());
  ASSERT_TRUE(LoadParams(path, lin.Params()).ok());
  std::remove(path);

  Matrix after = lin.Forward(ag::Constant(x))->value;
  ExpectExactlyEqual(after, LinearReference(other, x));
  EXPECT_NE(before(0, 0), after(0, 0));
}

TEST(PackInvalidationTest, RestoreParamsDropsStalePacks) {
  util::Rng rng(23);
  Linear lin(5, 7, &rng);
  Matrix x = Matrix::Gaussian(tensor::kGemmPackMinRows, 5, &rng);
  std::vector<Matrix> snap = SnapshotParams(lin.Params());
  Matrix before = lin.Forward(ag::Constant(x))->value;  // Warms the pack.

  for (const auto& p : lin.Params()) {
    p->value.Apply([](float v) { return v * 2.0f + 0.1f; });
    p->pack_cache.Invalidate();
  }
  Matrix perturbed = lin.Forward(ag::Constant(x))->value;
  EXPECT_NE(before(0, 0), perturbed(0, 0));

  RestoreParams(lin.Params(), snap);
  Matrix after = lin.Forward(ag::Constant(x))->value;
  ExpectExactlyEqual(after, before);
}

TEST(ModuleTest, SnapshotRestoreRoundTrip) {
  util::Rng rng(11);
  Mlp mlp({3, 4, 1}, &rng);
  auto snap = SnapshotParams(mlp.Params());
  float orig = mlp.Params()[0]->value(0, 0);
  mlp.Params()[0]->value.Fill(99.0f);
  RestoreParams(mlp.Params(), snap);
  EXPECT_FLOAT_EQ(mlp.Params()[0]->value(0, 0), orig);
}

}  // namespace
}  // namespace selnet::nn
