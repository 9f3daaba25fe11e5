#pragma once

#include "tensor/matrix.h"
#include "tensor/pack_cache.h"

/// \file blas.h
/// \brief Hot numeric kernels over Matrix: GEMM variants, axpy, reductions.
///
/// These are the only loops that matter for training and serving throughput.
/// Every multi-row NN product runs on one 4x16 packed micro-kernel,
/// runtime-dispatched across scalar/AVX2/AVX-512/NEON implementations
/// (kernel_dispatch.h) and sharded across cores above kGemmParallelMinRows.
/// B's packed panels come either from a per-version cache (pack_cache.h, via
/// GemmNNPrepacked — what ag::MatMul uses for leaf weights from
/// kGemmPrepackedMinRows rows) or from a bounded thread-local scratch arena
/// (GemmNN from kGemmPackMinRows rows). A row count that is not a multiple
/// of 4 ends in one padded 4-row block. Below those thresholds a saxpy loop
/// streams B once per row.
///
/// Bit-identity: with beta == 0, every GemmNN path — any batch size, any
/// dispatched ISA, any core count — keeps one per-element accumulation order
/// (ascending k, two separately rounded ops per term), so results are
/// bit-identical across kernels. Batched serving returns exactly what a
/// single-row Predict would; see kernel_dispatch.h for how the SIMD variants
/// uphold this.

namespace selnet::tensor {

/// \brief Row count from which a product against a cached pack (a leaf
/// weight in ag::MatMul) runs on GemmNNPrepacked. A single row stays on the
/// saxpy loop: one padded 4-row block costs about twice as much.
inline constexpr size_t kGemmPrepackedMinRows = 2;

/// \brief Row count at which GemmNN (no cached pack) switches from the saxpy
/// loop to packing B into scratch for the micro-kernel.
inline constexpr size_t kGemmPackMinRows = 16;

/// \brief Row count at which the packed path shards 4-row blocks across
/// util::ParallelFor. Serial fallback on single-threaded hosts and inside
/// pool workers — so BatchScheduler flushes stay serial per flush (their
/// multi-core story is several flushes in flight across workers); the
/// sharded path serves direct large batched Predicts on non-pool threads.
inline constexpr size_t kGemmParallelMinRows = 128;

/// \brief Forced kernel choice for GemmNNWithKernel (tests and benches pin
/// each path; production code uses the batch-size auto dispatch).
enum class GemmKernel { kAuto, kSaxpy, kPacked, kPackedParallel };

/// \brief out = alpha * A(^T?) * B(^T?) + beta * out.
///
/// `out` must be pre-shaped to the product shape; `beta == 0` overwrites.
void Gemm(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
          float alpha, float beta, Matrix* out);

/// \brief out += alpha * A * B through an explicitly chosen NN kernel
/// (callers zero `out` first for the plain product).
void GemmNNWithKernel(const Matrix& a, const Matrix& b, float alpha,
                      Matrix* out, GemmKernel kernel);

/// \brief out += alpha * A * packed(B), skipping the pack pass entirely —
/// the inference hot path for any m >= kGemmPrepackedMinRows, fed by a
/// version-keyed PackCache snapshot. Bit-identical to
/// GemmNNWithKernel(..., kPacked) on the unpacked B.
void GemmNNPrepacked(const Matrix& a, const PackedWeights& packed, float alpha,
                     Matrix* out);

/// \brief C = A * B convenience wrapper.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// \brief y += alpha * x (same shape).
void Axpy(float alpha, const Matrix& x, Matrix* y);

/// \brief out = a + b (same shape).
Matrix Add(const Matrix& a, const Matrix& b);

/// \brief out = a - b (same shape).
Matrix Sub(const Matrix& a, const Matrix& b);

/// \brief out = a ⊙ b elementwise (same shape).
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// \brief out = a * scalar.
Matrix Scale(const Matrix& a, float s);

/// \brief Add a 1xC row vector to every row of `m` in place.
void AddRowVectorInPlace(Matrix* m, const Matrix& row_vec);

/// \brief Column-wise sums of `m` as a 1xC matrix.
Matrix ColSums(const Matrix& m);

/// \brief Row-wise sums of `m` as an Rx1 matrix.
Matrix RowSums(const Matrix& m);

/// \brief Dot product of two equally-sized float spans.
float Dot(const float* a, const float* b, size_t n);

/// \brief Squared Euclidean distance between two float spans.
float SquaredL2(const float* a, const float* b, size_t n);

}  // namespace selnet::tensor
