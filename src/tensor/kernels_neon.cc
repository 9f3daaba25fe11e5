#include "tensor/kernel_dispatch.h"

/// \file kernels_neon.cc
/// \brief NEON variant of the 4x16 packed micro-kernel, compiled into every
/// aarch64 build (NEON is baseline there, so no target attribute and no
/// runtime probe).
/// Bit-identity rules as in kernels_avx2.cc: separate vmul/vadd — never
/// vmla/fmla, which fuse — and column-axis vectorization only.

#if defined(__ARM_NEON)

#include <arm_neon.h>

namespace selnet::tensor::internal {

namespace {

void MicroKernelNeon(const float* a0, const float* a1, const float* a2,
                     const float* a3, size_t k, float alpha, const float* panel,
                     float* acc) {
  // 4 rows x 16 columns = 16 q-register accumulators.
  float32x4_t c[4][4];
  const float* rows[4] = {a0, a1, a2, a3};
  for (int r = 0; r < 4; ++r) {
    for (int s = 0; s < 4; ++s) c[r][s] = vld1q_f32(acc + r * 16 + s * 4);
  }
  for (size_t p = 0; p < k; ++p) {
    const float* b_row = panel + p * kPanelWidth;
    float32x4_t b[4] = {vld1q_f32(b_row), vld1q_f32(b_row + 4),
                        vld1q_f32(b_row + 8), vld1q_f32(b_row + 12)};
    for (int r = 0; r < 4; ++r) {
      float32x4_t v = vdupq_n_f32(alpha * rows[r][p]);
      for (int s = 0; s < 4; ++s) {
        c[r][s] = vaddq_f32(c[r][s], vmulq_f32(v, b[s]));
      }
    }
  }
  for (int r = 0; r < 4; ++r) {
    for (int s = 0; s < 4; ++s) vst1q_f32(acc + r * 16 + s * 4, c[r][s]);
  }
}

// The training kernels have no NEON version yet: the portable ones.
constexpr KernelInfo kNeonKernel{"neon", MicroKernelNeon,
                                 DotKernelPortable, L2BlockPortable};

}  // namespace

const KernelInfo* NeonKernel() { return &kNeonKernel; }

}  // namespace selnet::tensor::internal

#else  // non-ARM target

namespace selnet::tensor::internal {
const KernelInfo* NeonKernel() { return nullptr; }
}  // namespace selnet::tensor::internal

#endif
