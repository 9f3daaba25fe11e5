#include "tensor/kernel_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace selnet::tensor {

namespace internal {
// Each SIMD translation unit defines its probe; it returns nullptr on other
// architectures or when the CPU lacks the ISA.
const KernelInfo* Avx2Kernel();
const KernelInfo* Avx512Kernel();
const KernelInfo* NeonKernel();
}  // namespace internal

namespace {

// The portable reference micro-kernel. Every other implementation is held,
// bit-for-bit, to this one's per-element operation sequence (see the
// bit-identity contract in kernel_dispatch.h).
void MicroKernelScalar(const float* a0, const float* a1, const float* a2,
                       const float* a3, size_t k, float alpha,
                       const float* panel, float* acc) {
  float* acc0 = acc;
  float* acc1 = acc + kPanelWidth;
  float* acc2 = acc + 2 * kPanelWidth;
  float* acc3 = acc + 3 * kPanelWidth;
  for (size_t p = 0; p < k; ++p) {
    const float* b_row = panel + p * kPanelWidth;
    float v0 = alpha * a0[p];
    float v1 = alpha * a1[p];
    float v2 = alpha * a2[p];
    float v3 = alpha * a3[p];
    for (size_t j = 0; j < kPanelWidth; ++j) {
      float bv = b_row[j];
      acc0[j] += v0 * bv;
      acc1[j] += v1 * bv;
      acc2[j] += v2 * bv;
      acc3[j] += v3 * bv;
    }
  }
}

constexpr KernelInfo kScalarKernel{"scalar", MicroKernelScalar,
                                   internal::DotKernelPortable,
                                   internal::L2BlockPortable};

std::vector<KernelInfo> BuildAvailable() {
  std::vector<KernelInfo> kernels{kScalarKernel};
  if (const KernelInfo* k = internal::NeonKernel()) kernels.push_back(*k);
  if (const KernelInfo* k = internal::Avx2Kernel()) kernels.push_back(*k);
  if (const KernelInfo* k = internal::Avx512Kernel()) kernels.push_back(*k);
  return kernels;
}

const KernelInfo* ResolveDefault() {
  const std::vector<KernelInfo>& kernels = AvailableKernels();
  if (const char* name = std::getenv("SELNET_KERNEL")) {
    for (const KernelInfo& k : kernels) {
      if (std::strcmp(k.name, name) == 0) return &k;
    }
    // Unknown/unsupported override: fall through to the widest kernel rather
    // than fail — serving must come up on any host.
  }
  return &kernels.back();  // Registration order is narrowest to widest.
}

std::atomic<const KernelInfo*>& ActiveSlot() {
  static std::atomic<const KernelInfo*> active{ResolveDefault()};
  return active;
}

}  // namespace

namespace internal {

// The exact operation sequence of tensor::Dot, once per output: four
// partial sums by p mod 4 (s0..s3), the k mod 4 tail into s0. The loops run
// across the panel's 16 outputs innermost, so compilers vectorize them.
void DotKernelPortable(const float* a0, const float* a1, const float* a2,
                       const float* a3, size_t k, float alpha,
                       const float* panel, float* acc) {
  const float* a_rows[kMicroRows] = {a0, a1, a2, a3};
  for (size_t r = 0; r < kMicroRows; ++r) {
    const float* a = a_rows[r];
    float s0[kPanelWidth] = {}, s1[kPanelWidth] = {};
    float s2[kPanelWidth] = {}, s3[kPanelWidth] = {};
    size_t p = 0;
    for (; p + 4 <= k; p += 4) {
      const float* b = panel + p * kPanelWidth;
      for (size_t j = 0; j < kPanelWidth; ++j) {
        s0[j] += a[p] * b[j];
        s1[j] += a[p + 1] * b[kPanelWidth + j];
        s2[j] += a[p + 2] * b[2 * kPanelWidth + j];
        s3[j] += a[p + 3] * b[3 * kPanelWidth + j];
      }
    }
    for (; p < k; ++p) {
      const float* b = panel + p * kPanelWidth;
      for (size_t j = 0; j < kPanelWidth; ++j) s0[j] += a[p] * b[j];
    }
    for (size_t j = 0; j < kPanelWidth; ++j) {
      acc[r * kPanelWidth + j] = alpha * (((s0[j] + s1[j]) + s2[j]) + s3[j]);
    }
  }
}

// The exact operation sequence of tensor::SquaredL2, once per row: an even
// and an odd index chain per row (s0[r], s1[r]), the odd-length tail into
// s0. The loops run across the rows innermost.
void L2BlockPortable(const float* query, const float* rows, size_t dim,
                     float* out) {
  float s0[kL2BlockRows] = {}, s1[kL2BlockRows] = {};
  size_t i = 0;
  for (; i + 2 <= dim; i += 2) {
    for (size_t r = 0; r < kL2BlockRows; ++r) {
      float d0 = query[i] - rows[r * dim + i];
      float d1 = query[i + 1] - rows[r * dim + i + 1];
      s0[r] += d0 * d0;
      s1[r] += d1 * d1;
    }
  }
  if (i < dim) {
    for (size_t r = 0; r < kL2BlockRows; ++r) {
      float d = query[i] - rows[r * dim + i];
      s0[r] += d * d;
    }
  }
  for (size_t r = 0; r < kL2BlockRows; ++r) out[r] = s0[r] + s1[r];
}

}  // namespace internal

const std::vector<KernelInfo>& AvailableKernels() {
  static const std::vector<KernelInfo> kernels = BuildAvailable();
  return kernels;
}

const KernelInfo& ActiveKernel() { return *ActiveSlot().load(); }

bool SetActiveKernel(const std::string& name) {
  for (const KernelInfo& k : AvailableKernels()) {
    if (name == k.name) {
      ActiveSlot().store(&k);
      return true;
    }
  }
  return false;
}

}  // namespace selnet::tensor
