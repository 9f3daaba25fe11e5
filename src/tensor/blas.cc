#include "tensor/blas.h"

#include <algorithm>

#include "tensor/kernel_dispatch.h"
#include "util/thread_pool.h"

namespace selnet::tensor {

namespace {

// Plain saxpy C += alpha * A * B; the zero-skip makes post-ReLU-sparse
// activations cheap.
void GemmNNSaxpy(const Matrix& a, const Matrix& b, float alpha, Matrix* out) {
  size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (size_t i = 0; i < m; ++i) {
    float* c_row = out->row(i);
    const float* a_row = a.row(i);
    for (size_t p = 0; p < k; ++p) {
      float av = alpha * a_row[p];
      if (av == 0.0f) continue;
      const float* b_row = b.row(p);
      for (size_t j = 0; j < n; ++j) c_row[j] += av * b_row[j];
    }
  }
}

// Batched path: BLIS-style. B lives in 16-column micro-panels laid out
// p-major (packed by the caller — once per weight version through a
// PackCache, or per call into the bounded PackScratch arena), so the 4x16
// micro-kernel reads B perfectly sequentially (prefetch-friendly) and each
// weight byte is streamed once per 4 batch rows instead of once per row.
// The micro-kernel itself is runtime-dispatched (scalar/AVX2/AVX-512/NEON;
// see kernel_dispatch.h). This is the path that makes batched serving pay:
// at m = 1 a forward pass is bound by streaming the weight matrix, at m = 64
// the stream is amortized ~16-fold and the micro-kernel runs at full width.
//
// Rounding: for each C element the sum over p runs in ascending p order with
// two separately rounded ops per term, the same order as the saxpy kernel
// and every dispatched ISA variant, so (with beta == 0) results are
// bit-identical across kernels — batched serving returns exactly what a
// single-row Predict would. (Saxpy's zero-skip only drops products of exact
// zeros, which add ±0 to a +0-seeded sum and cannot change a finite result.)

// C rows [row, row + rows) += alpha * A * packed(B) with rows <= kMicroRows:
// one micro-kernel call per panel. A short (tail) block pads its missing
// slots by repeating its last row and drops their accumulators, so tail
// rows run through the same dispatched kernel as full blocks. Rows are
// independent in the kernel, so the padding cannot change a real row's
// result.
void PackedBlock(const Matrix& a, const float* packed, size_t n, float alpha,
                 MicroKernelFn kernel, Matrix* out, size_t row, size_t rows) {
  size_t k = a.cols();
  size_t num_panels = (n + kPanelWidth - 1) / kPanelWidth;
  const float* a_rows[kMicroRows];
  for (size_t r = 0; r < kMicroRows; ++r) {
    a_rows[r] = a.row(row + std::min(r, rows - 1));
  }
  for (size_t pa = 0; pa < num_panels; ++pa) {
    size_t j0 = pa * kPanelWidth;
    size_t jn = std::min(kPanelWidth, n - j0);
    float acc[kMicroRows * kPanelWidth] = {};
    kernel(a_rows[0], a_rows[1], a_rows[2], a_rows[3], k, alpha,
           packed + pa * k * kPanelWidth, acc);
    for (size_t r = 0; r < rows; ++r) {
      float* c = out->row(row + r) + j0;
      const float* acc_r = acc + r * kPanelWidth;
      for (size_t j = 0; j < jn; ++j) c[j] += acc_r[j];
    }
  }
}

// How eagerly PackedCompute shards row blocks across the global pool.
enum class Sharding {
  kNever,      // Always serial (deterministic single-thread reference).
  kByRowCount, // Shard at >= kGemmParallelMinRows rows (production auto).
  kAlways,     // Shard any row count (tests exercise the decomposition).
};

// Serial or row-sharded run over an already packed B, in 4-row blocks (the
// last one possibly short). Sharding splits whole blocks across the global
// pool (disjoint C rows, identical per-block arithmetic, so results do not
// depend on the schedule); ParallelFor falls back to a serial loop on
// 1-thread hosts and inside pool workers — in particular BatchScheduler
// flushes stay serial per flush, because the scheduler's multi-core story is
// several flushes in flight across workers, not intra-GEMM sharding (nested
// sharding could starve the fixed pool). The sharded path serves direct
// large batched Predict calls on non-pool threads: bulk scoring, eval
// sweeps, the server's unbatched fallback.
void PackedCompute(const Matrix& a, const float* packed, size_t n, float alpha,
                   Matrix* out, Sharding sharding) {
  size_t m = a.rows();
  size_t num_blocks = (m + kMicroRows - 1) / kMicroRows;
  const MicroKernelFn kernel = ActiveKernel().fn;
  auto block = [&](size_t blk) {
    size_t row = blk * kMicroRows;
    PackedBlock(a, packed, n, alpha, kernel, out, row,
                std::min(kMicroRows, m - row));
  };
  bool shard = sharding == Sharding::kAlways ||
               (sharding == Sharding::kByRowCount &&
                m >= kGemmParallelMinRows &&
                util::ThreadPool::Global().num_threads() > 1);
  if (shard) {
    util::ParallelFor(0, num_blocks, block, /*grain=*/2);
  } else {
    for (size_t blk = 0; blk < num_blocks; ++blk) block(blk);
  }
}

// Cache-less packed GEMM: packs into the bounded thread-local arena.
void GemmNNPacked(const Matrix& a, const Matrix& b, float alpha, Matrix* out,
                  Sharding sharding) {
  size_t k = b.rows(), n = b.cols();
  size_t num_panels = (n + kPanelWidth - 1) / kPanelWidth;
  float* packed =
      PackScratch::ThreadLocal().Acquire(num_panels * k * kPanelWidth);
  PackBInto(b, packed);
  PackedCompute(a, packed, n, alpha, out, sharding);
}

// C(m x n) += alpha * A(m x k) * B(k x n), row-major, for a B with no cached
// pack. Kernel choice by batch size: repacking B per call pays for itself
// once its stream is reused across kGemmPackMinRows rows.
void GemmNN(const Matrix& a, const Matrix& b, float alpha, Matrix* out) {
  if (a.rows() >= kGemmPackMinRows) {
    GemmNNPacked(a, b, alpha, out, Sharding::kByRowCount);
  } else {
    GemmNNSaxpy(a, b, alpha, out);
  }
}

// C(m x n) += alpha * A^T(m x k) * B(k x n) where A is (k x m).
void GemmTN(const Matrix& a, const Matrix& b, float alpha, Matrix* out) {
  size_t k = a.rows(), m = a.cols(), n = b.cols();
  for (size_t p = 0; p < k; ++p) {
    const float* a_row = a.row(p);
    const float* b_row = b.row(p);
    for (size_t i = 0; i < m; ++i) {
      float av = alpha * a_row[i];
      if (av == 0.0f) continue;
      float* c_row = out->row(i);
      for (size_t j = 0; j < n; ++j) c_row[j] += av * b_row[j];
    }
  }
}

// C(m x n) += alpha * A(m x k) * B^T(k x n) where B is (n x k): dot products.
void GemmNT(const Matrix& a, const Matrix& b, float alpha, Matrix* out) {
  size_t m = a.rows(), k = a.cols(), n = b.rows();
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a.row(i);
    float* c_row = out->row(i);
    for (size_t j = 0; j < n; ++j) {
      c_row[j] += alpha * Dot(a_row, b.row(j), k);
    }
  }
}

// C(m x n) += alpha * A^T(m x k) * B^T(k x n); rare, done via explicit copy.
void GemmTT(const Matrix& a, const Matrix& b, float alpha, Matrix* out) {
  Matrix at = a.Transposed();
  Matrix bt = b.Transposed();
  GemmNN(at, bt, alpha, out);
}

}  // namespace

void GemmNNWithKernel(const Matrix& a, const Matrix& b, float alpha,
                      Matrix* out, GemmKernel kernel) {
  SEL_CHECK_EQ(a.cols(), b.rows());
  SEL_CHECK_EQ(out->rows(), a.rows());
  SEL_CHECK_EQ(out->cols(), b.cols());
  switch (kernel) {
    case GemmKernel::kAuto:
      GemmNN(a, b, alpha, out);
      break;
    case GemmKernel::kSaxpy:
      GemmNNSaxpy(a, b, alpha, out);
      break;
    case GemmKernel::kPacked:
      GemmNNPacked(a, b, alpha, out, Sharding::kNever);
      break;
    case GemmKernel::kPackedParallel:
      // Forced block sharding regardless of m, so tests exercise the
      // decomposition even for small inputs.
      GemmNNPacked(a, b, alpha, out, Sharding::kAlways);
      break;
  }
}

void GemmNNPrepacked(const Matrix& a, const PackedWeights& packed, float alpha,
                     Matrix* out) {
  SEL_CHECK_EQ(a.cols(), packed.k);
  SEL_CHECK_EQ(out->rows(), a.rows());
  SEL_CHECK_EQ(out->cols(), packed.n);
  PackedCompute(a, packed.data.data(), packed.n, alpha, out,
                Sharding::kByRowCount);
}

float Dot(const float* a, const float* b, size_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return s0 + s1 + s2 + s3;
}

float SquaredL2(const float* a, const float* b, size_t n) {
  float s0 = 0.0f, s1 = 0.0f;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    float d0 = a[i] - b[i];
    float d1 = a[i + 1] - b[i + 1];
    s0 += d0 * d0;
    s1 += d1 * d1;
  }
  if (i < n) {
    float d = a[i] - b[i];
    s0 += d * d;
  }
  return s0 + s1;
}

void Gemm(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
          float alpha, float beta, Matrix* out) {
  size_t m = trans_a ? a.cols() : a.rows();
  size_t ka = trans_a ? a.rows() : a.cols();
  size_t kb = trans_b ? b.cols() : b.rows();
  size_t n = trans_b ? b.rows() : b.cols();
  SEL_CHECK_EQ(ka, kb);
  SEL_CHECK_EQ(out->rows(), m);
  SEL_CHECK_EQ(out->cols(), n);
  if (beta == 0.0f) {
    out->Fill(0.0f);
  } else if (beta != 1.0f) {
    for (size_t i = 0; i < out->size(); ++i) out->data()[i] *= beta;
  }
  if (!trans_a && !trans_b) {
    GemmNN(a, b, alpha, out);
  } else if (trans_a && !trans_b) {
    GemmTN(a, b, alpha, out);
  } else if (!trans_a && trans_b) {
    GemmNT(a, b, alpha, out);
  } else {
    GemmTT(a, b, alpha, out);
  }
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  Gemm(a, false, b, false, 1.0f, 0.0f, &out);
  return out;
}

void Axpy(float alpha, const Matrix& x, Matrix* y) {
  SEL_CHECK(x.SameShape(*y));
  const float* xd = x.data();
  float* yd = y->data();
  for (size_t i = 0; i < x.size(); ++i) yd[i] += alpha * xd[i];
}

Matrix Add(const Matrix& a, const Matrix& b) {
  SEL_CHECK(a.SameShape(b));
  Matrix out = a;
  Axpy(1.0f, b, &out);
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  SEL_CHECK(a.SameShape(b));
  Matrix out = a;
  Axpy(-1.0f, b, &out);
  return out;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  SEL_CHECK(a.SameShape(b));
  Matrix out = a;
  float* od = out.data();
  const float* bd = b.data();
  for (size_t i = 0; i < out.size(); ++i) od[i] *= bd[i];
  return out;
}

Matrix Scale(const Matrix& a, float s) {
  Matrix out = a;
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] *= s;
  return out;
}

void AddRowVectorInPlace(Matrix* m, const Matrix& row_vec) {
  SEL_CHECK_EQ(row_vec.rows(), 1u);
  SEL_CHECK_EQ(row_vec.cols(), m->cols());
  const float* v = row_vec.data();
  for (size_t r = 0; r < m->rows(); ++r) {
    float* row = m->row(r);
    for (size_t c = 0; c < m->cols(); ++c) row[c] += v[c];
  }
}

Matrix ColSums(const Matrix& m) {
  Matrix out(1, m.cols());
  float* o = out.data();
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.row(r);
    for (size_t c = 0; c < m.cols(); ++c) o[c] += row[c];
  }
  return out;
}

Matrix RowSums(const Matrix& m) {
  Matrix out(m.rows(), 1);
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.row(r);
    float s = 0.0f;
    for (size_t c = 0; c < m.cols(); ++c) s += row[c];
    out(r, 0) = s;
  }
  return out;
}

}  // namespace selnet::tensor
