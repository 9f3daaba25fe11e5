#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "tensor/blas.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/matrix.h"
#include "tensor/pack_cache.h"
#include "util/rng.h"

namespace selnet::tensor {
namespace {

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

void ExpectNear(const Matrix& a, const Matrix& b, float tol = 1e-4f) {
  ASSERT_TRUE(a.SameShape(b));
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.data()[i], b.data()[i], tol) << "at flat index " << i;
  }
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  m(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 7.0f);
  EXPECT_FLOAT_EQ(m(0, 0), 1.5f);
}

TEST(MatrixTest, EyeAndTranspose) {
  Matrix eye = Matrix::Eye(3);
  ExpectNear(eye, eye.Transposed());
  util::Rng rng(1);
  Matrix m = Matrix::Gaussian(4, 7, &rng);
  Matrix mtt = m.Transposed().Transposed();
  ExpectNear(m, mtt);
}

TEST(MatrixTest, RowAndColSlices) {
  Matrix m(3, 4);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) m(r, c) = static_cast<float>(r * 10 + c);
  }
  Matrix rows = m.RowSlice(1, 3);
  EXPECT_EQ(rows.rows(), 2u);
  EXPECT_FLOAT_EQ(rows(0, 0), 10.0f);
  Matrix cols = m.ColSlice(2, 4);
  EXPECT_EQ(cols.cols(), 2u);
  EXPECT_FLOAT_EQ(cols(2, 1), 23.0f);
}

TEST(MatrixTest, ReshapedPreservesRowMajorOrder) {
  Matrix m(2, 3);
  for (size_t i = 0; i < 6; ++i) m.data()[i] = static_cast<float>(i);
  Matrix r = m.Reshaped(3, 2);
  EXPECT_FLOAT_EQ(r(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(r(2, 0), 4.0f);
}

TEST(MatrixTest, Reductions) {
  Matrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = -2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  EXPECT_DOUBLE_EQ(m.Sum(), 6.0);
  EXPECT_FLOAT_EQ(m.Max(), 4.0f);
  EXPECT_FLOAT_EQ(m.Min(), -2.0f);
  EXPECT_NEAR(m.Norm(), std::sqrt(1.0 + 4 + 9 + 16), 1e-6);
}

TEST(MatrixTest, AllFiniteDetectsNan) {
  Matrix m(2, 2, 1.0f);
  EXPECT_TRUE(m.AllFinite());
  m(1, 1) = std::nanf("");
  EXPECT_FALSE(m.AllFinite());
}

struct GemmCase {
  size_t m, k, n;
  bool ta, tb;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesNaive) {
  GemmCase c = GetParam();
  util::Rng rng(c.m * 100 + c.k * 10 + c.n + (c.ta ? 1000 : 0) + (c.tb ? 2000 : 0));
  Matrix a = c.ta ? Matrix::Gaussian(c.k, c.m, &rng) : Matrix::Gaussian(c.m, c.k, &rng);
  Matrix b = c.tb ? Matrix::Gaussian(c.n, c.k, &rng) : Matrix::Gaussian(c.k, c.n, &rng);
  Matrix out(c.m, c.n);
  Gemm(a, c.ta, b, c.tb, 1.0f, 0.0f, &out);
  Matrix expect = NaiveMatMul(c.ta ? a.Transposed() : a, c.tb ? b.Transposed() : b);
  ExpectNear(out, expect, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, GemmTest,
    ::testing::Values(GemmCase{3, 4, 5, false, false},
                      GemmCase{3, 4, 5, true, false},
                      GemmCase{3, 4, 5, false, true},
                      GemmCase{3, 4, 5, true, true},
                      GemmCase{1, 1, 1, false, false},
                      GemmCase{17, 31, 7, false, false},
                      GemmCase{17, 31, 7, true, false},
                      GemmCase{8, 1, 9, false, true},
                      GemmCase{1, 64, 1, false, false}));

TEST(GemmTest, BetaAccumulates) {
  util::Rng rng(9);
  Matrix a = Matrix::Gaussian(3, 3, &rng);
  Matrix b = Matrix::Gaussian(3, 3, &rng);
  Matrix out = Matrix::Ones(3, 3);
  Gemm(a, false, b, false, 1.0f, 1.0f, &out);
  Matrix expect = Add(NaiveMatMul(a, b), Matrix::Ones(3, 3));
  ExpectNear(out, expect, 1e-3f);
}

TEST(GemmTest, AlphaScales) {
  util::Rng rng(10);
  Matrix a = Matrix::Gaussian(2, 4, &rng);
  Matrix b = Matrix::Gaussian(4, 2, &rng);
  Matrix out(2, 2);
  Gemm(a, false, b, false, 2.5f, 0.0f, &out);
  ExpectNear(out, Scale(NaiveMatMul(a, b), 2.5f), 1e-3f);
}

TEST(BlasTest, ElementwiseOps) {
  Matrix a(1, 3);
  Matrix b(1, 3);
  for (int i = 0; i < 3; ++i) {
    a(0, i) = static_cast<float>(i + 1);
    b(0, i) = static_cast<float>(2 * i);
  }
  Matrix sum = Add(a, b);
  Matrix diff = Sub(a, b);
  Matrix prod = Hadamard(a, b);
  EXPECT_FLOAT_EQ(sum(0, 2), 7.0f);
  EXPECT_FLOAT_EQ(diff(0, 2), -1.0f);
  EXPECT_FLOAT_EQ(prod(0, 1), 4.0f);
}

TEST(BlasTest, AxpyAndRowBroadcast) {
  Matrix y = Matrix::Ones(2, 2);
  Matrix x = Matrix::Full(2, 2, 2.0f);
  Axpy(0.5f, x, &y);
  EXPECT_FLOAT_EQ(y(0, 0), 2.0f);
  Matrix row(1, 2);
  row(0, 0) = 10.0f;
  row(0, 1) = 20.0f;
  AddRowVectorInPlace(&y, row);
  EXPECT_FLOAT_EQ(y(1, 1), 22.0f);
}

TEST(BlasTest, ColAndRowSums) {
  Matrix m(2, 3);
  for (size_t i = 0; i < 6; ++i) m.data()[i] = static_cast<float>(i);
  Matrix cs = ColSums(m);
  EXPECT_FLOAT_EQ(cs(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(cs(0, 2), 7.0f);
  Matrix rs = RowSums(m);
  EXPECT_FLOAT_EQ(rs(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(rs(1, 0), 12.0f);
}

TEST(BlasTest, DotAndSquaredL2) {
  std::vector<float> a = {1, 2, 3, 4, 5};
  std::vector<float> b = {5, 4, 3, 2, 1};
  EXPECT_FLOAT_EQ(Dot(a.data(), b.data(), 5), 35.0f);
  EXPECT_FLOAT_EQ(SquaredL2(a.data(), b.data(), 5), 16 + 4 + 0 + 4 + 16);
}

// ------------------------------------------------------- kernel engine ---

// Pins the dispatched micro-kernel for a scope; restores the prior one.
struct KernelGuard {
  explicit KernelGuard(const char* name) : prev(ActiveKernel().name) {
    EXPECT_TRUE(SetActiveKernel(name));
  }
  ~KernelGuard() { SetActiveKernel(prev); }
  std::string prev;
};

void ExpectBitIdentical(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": outputs are not bit-identical";
}

// Post-ReLU-like inputs: the saxpy kernel takes its zero-skip branch, the
// packed kernels do not — outputs must still match bitwise.
Matrix ReluSparse(Matrix m) {
  for (size_t i = 0; i < m.size(); ++i) {
    if (m.data()[i] < 0.3f) m.data()[i] = 0.0f;
  }
  return m;
}

TEST(KernelDispatchTest, ScalarAlwaysPresentAndOverridable) {
  const std::vector<KernelInfo>& kernels = AvailableKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "scalar");
  EXPECT_FALSE(SetActiveKernel("no-such-isa"));
  for (const KernelInfo& k : kernels) {
    EXPECT_TRUE(SetActiveKernel(k.name)) << k.name;
    EXPECT_STREQ(ActiveKernel().name, k.name);
  }
  SetActiveKernel("scalar");
}

// The acceptance contract: every GemmNN path — saxpy, packed under every
// available ISA kernel, the parallel row-sharded path, and the prepacked
// (cache-fed) path — produces bit-identical output.
TEST(KernelDispatchTest, AllPathsBitIdenticalToPortablePacked) {
  struct Shape {
    size_t m, k, n;
  };
  // Odd shapes exercise the panel zero-padding; m covers a lone row, every
  // padded tail size (m mod 4 = 1, 2, 3) alone and after a full block.
  const Shape shapes[] = {{17, 19, 23}, {32, 31, 16}, {64, 40, 48},
                          {5, 7, 90},   {1, 13, 20},  {2, 9, 33},
                          {3, 24, 17},  {6, 11, 40},  {7, 16, 5}};
  for (const Shape& s : shapes) {
    for (bool sparse : {false, true}) {
      util::Rng rng(s.m * 7919 + s.k * 131 + s.n + (sparse ? 1 : 0));
      Matrix a = Matrix::Gaussian(s.m, s.k, &rng);
      if (sparse) a = ReluSparse(std::move(a));
      Matrix b = Matrix::Gaussian(s.k, s.n, &rng);

      Matrix ref(s.m, s.n);
      {
        KernelGuard guard("scalar");
        GemmNNWithKernel(a, b, 1.0f, &ref, GemmKernel::kPacked);
      }

      for (GemmKernel path : {GemmKernel::kSaxpy, GemmKernel::kPacked,
                              GemmKernel::kPackedParallel, GemmKernel::kAuto}) {
        Matrix out(s.m, s.n);
        KernelGuard guard("scalar");
        GemmNNWithKernel(a, b, 1.0f, &out, path);
        ExpectBitIdentical(ref, out, "scalar path");
      }

      for (const KernelInfo& kern : AvailableKernels()) {
        KernelGuard guard(kern.name);
        Matrix packed_out(s.m, s.n);
        GemmNNWithKernel(a, b, 1.0f, &packed_out, GemmKernel::kPacked);
        ExpectBitIdentical(ref, packed_out, kern.name);

        Matrix parallel_out(s.m, s.n);
        GemmNNWithKernel(a, b, 1.0f, &parallel_out,
                         GemmKernel::kPackedParallel);
        ExpectBitIdentical(ref, parallel_out, kern.name);

        PackCache cache;
        Matrix prepacked_out(s.m, s.n);
        GemmNNPrepacked(a, *cache.Get(b), 1.0f, &prepacked_out);
        ExpectBitIdentical(ref, prepacked_out, kern.name);
      }
    }
  }
}

TEST(KernelDispatchTest, AlphaFlowsThroughEveryKernel) {
  util::Rng rng(42);
  Matrix a = Matrix::Gaussian(20, 9, &rng);
  Matrix b = Matrix::Gaussian(9, 17, &rng);
  Matrix ref(20, 17);
  {
    KernelGuard guard("scalar");
    GemmNNWithKernel(a, b, -1.75f, &ref, GemmKernel::kPacked);
  }
  for (const KernelInfo& kern : AvailableKernels()) {
    KernelGuard guard(kern.name);
    Matrix out(20, 17);
    GemmNNWithKernel(a, b, -1.75f, &out, GemmKernel::kPacked);
    ExpectBitIdentical(ref, out, kern.name);
  }
}

TEST(PackCacheTest, BuildsOncePerGenerationAndInvalidates) {
  util::Rng rng(3);
  Matrix b = Matrix::Gaussian(24, 33, &rng);
  PackStatsSnapshot before = PackStats();
  PackCache cache;
  std::shared_ptr<const PackedWeights> p1 = cache.Get(b);
  std::shared_ptr<const PackedWeights> p2 = cache.Get(b);
  EXPECT_EQ(p1.get(), p2.get());  // Served from the cached snapshot.
  PackStatsSnapshot mid = PackStats();
  EXPECT_EQ(mid.builds - before.builds, 1u);
  EXPECT_EQ(mid.hits - before.hits, 1u);

  uint64_t gen = cache.generation();
  cache.Invalidate();
  EXPECT_GT(cache.generation(), gen);
  std::shared_ptr<const PackedWeights> p3 = cache.Get(b);
  EXPECT_NE(p1.get(), p3.get());  // Rebuilt after invalidation.
  EXPECT_EQ(PackStats().builds - before.builds, 2u);

  // Snapshots are immutable: the pre-invalidation pack is still intact.
  EXPECT_EQ(p1->k, b.rows());
  EXPECT_EQ(p1->n, b.cols());
  EXPECT_EQ(p1->data, p3->data);
}

TEST(PackCacheTest, PackedLayoutZeroPadsPartialPanels) {
  util::Rng rng(5);
  Matrix b = Matrix::Gaussian(3, 18, &rng);  // 18 cols -> 16 + 2-wide panel.
  PackedWeights pw;
  PackB(b, &pw);
  ASSERT_EQ(pw.num_panels, 2u);
  for (size_t p = 0; p < 3; ++p) {
    const float* panel1 = pw.panel(1) + p * kPanelWidth;
    EXPECT_EQ(panel1[0], b(p, 16));
    EXPECT_EQ(panel1[1], b(p, 17));
    for (size_t j = 2; j < kPanelWidth; ++j) EXPECT_EQ(panel1[j], 0.0f);
  }
}

TEST(PackCacheTest, DisableSwitchBypassesCaching) {
  util::Rng rng(4);
  Matrix b = Matrix::Gaussian(8, 8, &rng);
  PackCache cache;
  SetPackCacheEnabled(false);
  PackStatsSnapshot before = PackStats();
  cache.Get(b);
  cache.Get(b);
  EXPECT_EQ(PackStats().builds - before.builds, 2u);  // No reuse.
  SetPackCacheEnabled(true);
  cache.Get(b);
  cache.Get(b);
  EXPECT_EQ(PackStats().builds - before.builds, 3u);  // Cached again.
}

TEST(PackScratchTest, ArenaShrinksWhenDemandDrops) {
  PackScratch arena;
  const size_t big = 1 << 20;
  arena.Acquire(big);
  EXPECT_GE(arena.capacity(), big);
  // A sustained period of small demand re-fits the arena: the one-off giant
  // GEMM no longer pins a megabyte per thread (the old thread_local vector
  // grew monotonically and never shrank).
  for (size_t i = 0; i < 2 * PackScratch::kShrinkPeriod; ++i) {
    arena.Acquire(256);
  }
  EXPECT_LT(arena.capacity(), big / 2);
  EXPECT_GE(arena.capacity(), 256u);
}

TEST(PackScratchTest, GemmScratchPathShrinksToo) {
  util::Rng rng(6);
  // One 16 x 512 * 512 x 512 GEMM inflates the calling thread's arena...
  Matrix big_a = Matrix::Gaussian(16, 512, &rng);
  Matrix big_b = Matrix::Gaussian(512, 512, &rng);
  Matrix big_out(16, 512);
  GemmNNWithKernel(big_a, big_b, 1.0f, &big_out, GemmKernel::kPacked);
  EXPECT_GE(PackScratch::ThreadLocal().capacity(), size_t{512} * 512);
  // ...and a steady small workload deflates it again.
  Matrix a = Matrix::Gaussian(16, 8, &rng);
  Matrix b = Matrix::Gaussian(8, 8, &rng);
  for (size_t i = 0; i < 2 * PackScratch::kShrinkPeriod; ++i) {
    Matrix out(16, 8);
    GemmNNWithKernel(a, b, 1.0f, &out, GemmKernel::kPacked);
  }
  EXPECT_LT(PackScratch::ThreadLocal().capacity(), size_t{512} * 512);
}

}  // namespace
}  // namespace selnet::tensor
