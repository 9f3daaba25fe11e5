#include "tensor/kernel_dispatch.h"

/// \file kernels_avx512.cc
/// \brief AVX-512F variant of the 4x16 packed micro-kernel: one zmm register
/// covers a whole 16-column panel row, so the inner loop is 4 broadcasts,
/// 4 multiplies and 4 adds per p. Compiled into every x86 build through a
/// per-function target attribute and registered only when CPUID reports
/// AVX-512F. Same bit-identity rules as kernels_avx2.cc (mul+add, no FMA,
/// -ffp-contract=off, column-axis vectorization only).

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace selnet::tensor::internal {

namespace {

__attribute__((target("avx512f"))) void MicroKernelAvx512(
    const float* a0, const float* a1, const float* a2, const float* a3,
    size_t k, float alpha, const float* panel, float* acc) {
  static_assert(kPanelWidth == 16, "one zmm per panel row");
  __m512 c0 = _mm512_loadu_ps(acc + 0);
  __m512 c1 = _mm512_loadu_ps(acc + 16);
  __m512 c2 = _mm512_loadu_ps(acc + 32);
  __m512 c3 = _mm512_loadu_ps(acc + 48);
  for (size_t p = 0; p < k; ++p) {
    __m512 b = _mm512_loadu_ps(panel + p * kPanelWidth);
    c0 = _mm512_add_ps(c0, _mm512_mul_ps(_mm512_set1_ps(alpha * a0[p]), b));
    c1 = _mm512_add_ps(c1, _mm512_mul_ps(_mm512_set1_ps(alpha * a1[p]), b));
    c2 = _mm512_add_ps(c2, _mm512_mul_ps(_mm512_set1_ps(alpha * a2[p]), b));
    c3 = _mm512_add_ps(c3, _mm512_mul_ps(_mm512_set1_ps(alpha * a3[p]), b));
  }
  _mm512_storeu_ps(acc + 0, c0);
  _mm512_storeu_ps(acc + 16, c1);
  _mm512_storeu_ps(acc + 32, c2);
  _mm512_storeu_ps(acc + 48, c3);
}

constexpr KernelInfo kAvx512Kernel{"avx512", MicroKernelAvx512};

}  // namespace

const KernelInfo* Avx512Kernel() {
  return __builtin_cpu_supports("avx512f") ? &kAvx512Kernel : nullptr;
}

}  // namespace selnet::tensor::internal

#else  // non-x86 target

namespace selnet::tensor::internal {
const KernelInfo* Avx512Kernel() { return nullptr; }
}  // namespace selnet::tensor::internal

#endif
