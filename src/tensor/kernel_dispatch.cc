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

// The portable reference kernel. Every other implementation is held,
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

constexpr KernelInfo kScalarKernel{"scalar", MicroKernelScalar};

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
