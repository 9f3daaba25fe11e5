#include "tensor/kernel_dispatch.h"

/// \file kernels_avx2.cc
/// \brief AVX2 variants of the 4x16 packed micro-kernel and of GemmNT's
/// dot-product kernel.
///
/// Compiled into every x86 build: only these functions carry the AVX2
/// target attribute (the rest of the binary keeps the build's -march), and
/// the CPUID probe below registers them only on hosts that support AVX2.
///
/// Bit-identity: vectorization is across the 16-column panel axis only. In
/// the micro-kernel each output element still sees `v = alpha * a[p]` then
/// `acc += v * b` as two separately rounded ops in ascending-p order; the
/// dot-product kernel keeps Dot's sequence. Both are deliberately mul+add,
/// NOT FMA, to round exactly like the portable scalar kernels (the TU is
/// built with -ffp-contract=off so the compiler cannot fuse them either).

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace selnet::tensor::internal {

namespace {

__attribute__((target("avx2"))) void MicroKernelAvx2(
    const float* a0, const float* a1, const float* a2, const float* a3,
    size_t k, float alpha, const float* panel, float* acc) {
  // 4 rows x 16 columns = 8 ymm accumulators; panel rows are unaligned-safe.
  __m256 c00 = _mm256_loadu_ps(acc + 0);
  __m256 c01 = _mm256_loadu_ps(acc + 8);
  __m256 c10 = _mm256_loadu_ps(acc + 16);
  __m256 c11 = _mm256_loadu_ps(acc + 24);
  __m256 c20 = _mm256_loadu_ps(acc + 32);
  __m256 c21 = _mm256_loadu_ps(acc + 40);
  __m256 c30 = _mm256_loadu_ps(acc + 48);
  __m256 c31 = _mm256_loadu_ps(acc + 56);
  for (size_t p = 0; p < k; ++p) {
    const float* b_row = panel + p * kPanelWidth;
    __m256 b0 = _mm256_loadu_ps(b_row);
    __m256 b1 = _mm256_loadu_ps(b_row + 8);
    __m256 v0 = _mm256_set1_ps(alpha * a0[p]);
    __m256 v1 = _mm256_set1_ps(alpha * a1[p]);
    __m256 v2 = _mm256_set1_ps(alpha * a2[p]);
    __m256 v3 = _mm256_set1_ps(alpha * a3[p]);
    c00 = _mm256_add_ps(c00, _mm256_mul_ps(v0, b0));
    c01 = _mm256_add_ps(c01, _mm256_mul_ps(v0, b1));
    c10 = _mm256_add_ps(c10, _mm256_mul_ps(v1, b0));
    c11 = _mm256_add_ps(c11, _mm256_mul_ps(v1, b1));
    c20 = _mm256_add_ps(c20, _mm256_mul_ps(v2, b0));
    c21 = _mm256_add_ps(c21, _mm256_mul_ps(v2, b1));
    c30 = _mm256_add_ps(c30, _mm256_mul_ps(v3, b0));
    c31 = _mm256_add_ps(c31, _mm256_mul_ps(v3, b1));
  }
  _mm256_storeu_ps(acc + 0, c00);
  _mm256_storeu_ps(acc + 8, c01);
  _mm256_storeu_ps(acc + 16, c10);
  _mm256_storeu_ps(acc + 24, c11);
  _mm256_storeu_ps(acc + 32, c20);
  _mm256_storeu_ps(acc + 40, c21);
  _mm256_storeu_ps(acc + 48, c30);
  _mm256_storeu_ps(acc + 56, c31);
}

// GemmNT's 4x16 dot-product kernel, one A row at a time: 8 ymm accumulators
// (p mod 4 chains x two 8-column halves). Per output this is Dot's sequence
// exactly (see DotKernelFn).
__attribute__((target("avx2"))) void DotKernelAvx2(
    const float* a0, const float* a1, const float* a2, const float* a3,
    size_t k, float alpha, const float* panel, float* acc) {
  const float* a_rows[4] = {a0, a1, a2, a3};
  const __m256 va = _mm256_set1_ps(alpha);
  for (int r = 0; r < 4; ++r) {
    const float* a = a_rows[r];
    __m256 s[4][2];
    for (int q = 0; q < 4; ++q) {
      s[q][0] = _mm256_setzero_ps();
      s[q][1] = _mm256_setzero_ps();
    }
    size_t p = 0;
    for (; p + 4 <= k; p += 4) {
      const float* b_rows = panel + p * kPanelWidth;
      for (int q = 0; q < 4; ++q) {
        __m256 v = _mm256_set1_ps(a[p + q]);
        const float* b = b_rows + q * kPanelWidth;
        s[q][0] = _mm256_add_ps(s[q][0], _mm256_mul_ps(v, _mm256_loadu_ps(b)));
        s[q][1] =
            _mm256_add_ps(s[q][1], _mm256_mul_ps(v, _mm256_loadu_ps(b + 8)));
      }
    }
    for (; p < k; ++p) {
      __m256 v = _mm256_set1_ps(a[p]);
      const float* b = panel + p * kPanelWidth;
      s[0][0] = _mm256_add_ps(s[0][0], _mm256_mul_ps(v, _mm256_loadu_ps(b)));
      s[0][1] =
          _mm256_add_ps(s[0][1], _mm256_mul_ps(v, _mm256_loadu_ps(b + 8)));
    }
    for (int h = 0; h < 2; ++h) {
      __m256 sum = _mm256_add_ps(
          _mm256_add_ps(_mm256_add_ps(s[0][h], s[1][h]), s[2][h]), s[3][h]);
      _mm256_storeu_ps(acc + r * kPanelWidth + h * 8, _mm256_mul_ps(va, sum));
    }
  }
}

// The squared-L2 block stays portable here: a gather-based AVX2 version
// measured no faster than L2BlockPortable on dim-128 rows (see
// tensor/README.md).
constexpr KernelInfo kAvx2Kernel{"avx2", MicroKernelAvx2, DotKernelAvx2,
                                 L2BlockPortable};

}  // namespace

const KernelInfo* Avx2Kernel() {
  return __builtin_cpu_supports("avx2") ? &kAvx2Kernel : nullptr;
}

}  // namespace selnet::tensor::internal

#else  // non-x86 target

namespace selnet::tensor::internal {
const KernelInfo* Avx2Kernel() { return nullptr; }
}  // namespace selnet::tensor::internal

#endif
