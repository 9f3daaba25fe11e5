#include "tensor/kernel_dispatch.h"

/// \file kernels_avx512.cc
/// \brief AVX-512F variants of the 4x16 packed micro-kernel (one zmm register
/// covers a whole 16-column panel row, so the inner loop is 4 broadcasts,
/// 4 multiplies and 4 adds per p), of GemmNT's dot-product kernel and of the
/// exact scans' squared-L2 block. Compiled into every x86 build through a
/// per-function target attribute and registered only when CPUID reports
/// AVX-512F. Same bit-identity rules as kernels_avx2.cc (mul+add, no FMA,
/// -ffp-contract=off, vectorization across independent outputs only).

#if defined(__x86_64__) || defined(__i386__)

// GCC 12 reports -Wmaybe-uninitialized inside the AVX-512 shuffle and
// gather intrinsics once they are inlined (their pass-through operand is a
// deliberately undefined vector); the warnings point into this header, so
// they are silenced for it alone.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

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

// GemmNT's 4x16 dot-product kernel: 16 zmm accumulators, one per (A row,
// p mod 4) chain, each covering the panel's 16 outputs. Per output this is
// Dot's sequence exactly (see DotKernelFn).
__attribute__((target("avx512f"))) void DotKernelAvx512(
    const float* a0, const float* a1, const float* a2, const float* a3,
    size_t k, float alpha, const float* panel, float* acc) {
  const float* a[4] = {a0, a1, a2, a3};
  __m512 s[4][4];
  for (int r = 0; r < 4; ++r) {
    for (int q = 0; q < 4; ++q) s[r][q] = _mm512_setzero_ps();
  }
  size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const float* b_rows = panel + p * kPanelWidth;
    __m512 b[4] = {_mm512_loadu_ps(b_rows), _mm512_loadu_ps(b_rows + 16),
                   _mm512_loadu_ps(b_rows + 32), _mm512_loadu_ps(b_rows + 48)};
    for (int r = 0; r < 4; ++r) {
      for (int q = 0; q < 4; ++q) {
        s[r][q] = _mm512_add_ps(
            s[r][q], _mm512_mul_ps(_mm512_set1_ps(a[r][p + q]), b[q]));
      }
    }
  }
  for (; p < k; ++p) {
    __m512 b = _mm512_loadu_ps(panel + p * kPanelWidth);
    for (int r = 0; r < 4; ++r) {
      s[r][0] = _mm512_add_ps(s[r][0],
                              _mm512_mul_ps(_mm512_set1_ps(a[r][p]), b));
    }
  }
  __m512 va = _mm512_set1_ps(alpha);
  for (int r = 0; r < 4; ++r) {
    __m512 sum = _mm512_add_ps(
        _mm512_add_ps(_mm512_add_ps(s[r][0], s[r][1]), s[r][2]), s[r][3]);
    _mm512_storeu_ps(acc + r * kPanelWidth, _mm512_mul_ps(va, sum));
  }
}

// In-register transpose of a 16x16 tile: on entry r[i] holds row i, on exit
// r[c] holds column c (lane i = row i).
__attribute__((target("avx512f"), always_inline)) inline void Transpose16x16(
    __m512* r) {
  __m512 t[16];
  for (int i = 0; i < 8; ++i) {
    t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
    t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
  }
  for (int i = 0; i < 4; ++i) {
    for (int h = 0; h < 2; ++h) {
      __m512d lo = _mm512_castps_pd(t[4 * i + h]);
      __m512d hi = _mm512_castps_pd(t[4 * i + 2 + h]);
      r[4 * i + 2 * h] = _mm512_castpd_ps(_mm512_unpacklo_pd(lo, hi));
      r[4 * i + 2 * h + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(lo, hi));
    }
  }
  for (int i = 0; i < 2; ++i) {
    for (int c = 0; c < 4; ++c) {
      t[8 * i + c] = _mm512_shuffle_f32x4(r[8 * i + c], r[8 * i + 4 + c], 0x88);
      t[8 * i + 4 + c] =
          _mm512_shuffle_f32x4(r[8 * i + c], r[8 * i + 4 + c], 0xDD);
    }
  }
  for (int c = 0; c < 8; ++c) {
    r[c] = _mm512_shuffle_f32x4(t[c], t[8 + c], 0x88);
    r[8 + c] = _mm512_shuffle_f32x4(t[c], t[8 + c], 0xDD);
  }
}

// The squared-L2 block: lane r follows row r. Whole 16-column tiles are
// loaded row by row and transposed in registers; the last dim mod 16
// columns are gathered. Columns alternate between the even and the odd
// index chain, so each row keeps SquaredL2's sequence.
__attribute__((target("avx512f"))) void L2BlockAvx512(const float* query,
                                                      const float* rows,
                                                      size_t dim, float* out) {
  static_assert(kL2BlockRows == 16, "one zmm lane per row");
  __m512 s0 = _mm512_setzero_ps();
  __m512 s1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    __m512 col[16];
    for (int r = 0; r < 16; ++r) col[r] = _mm512_loadu_ps(rows + r * dim + i);
    Transpose16x16(col);
    for (int c = 0; c < 16; c += 2) {
      __m512 d0 = _mm512_sub_ps(_mm512_set1_ps(query[i + c]), col[c]);
      __m512 d1 = _mm512_sub_ps(_mm512_set1_ps(query[i + c + 1]), col[c + 1]);
      s0 = _mm512_add_ps(s0, _mm512_mul_ps(d0, d0));
      s1 = _mm512_add_ps(s1, _mm512_mul_ps(d1, d1));
    }
  }
  const __m512i offsets =
      _mm512_mullo_epi32(_mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15),
                         _mm512_set1_epi32(static_cast<int>(dim)));
  for (; i + 2 <= dim; i += 2) {
    __m512 c0 = _mm512_i32gather_ps(offsets, rows + i, 4);
    __m512 c1 = _mm512_i32gather_ps(offsets, rows + i + 1, 4);
    __m512 d0 = _mm512_sub_ps(_mm512_set1_ps(query[i]), c0);
    __m512 d1 = _mm512_sub_ps(_mm512_set1_ps(query[i + 1]), c1);
    s0 = _mm512_add_ps(s0, _mm512_mul_ps(d0, d0));
    s1 = _mm512_add_ps(s1, _mm512_mul_ps(d1, d1));
  }
  if (i < dim) {
    __m512 c = _mm512_i32gather_ps(offsets, rows + i, 4);
    __m512 d = _mm512_sub_ps(_mm512_set1_ps(query[i]), c);
    s0 = _mm512_add_ps(s0, _mm512_mul_ps(d, d));
  }
  _mm512_storeu_ps(out, _mm512_add_ps(s0, s1));
}

constexpr KernelInfo kAvx512Kernel{"avx512", MicroKernelAvx512,
                                   DotKernelAvx512, L2BlockAvx512};

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
