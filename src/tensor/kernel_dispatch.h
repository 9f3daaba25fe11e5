#pragma once

#include <cstddef>
#include <string>
#include <vector>

/// \file kernel_dispatch.h
/// \brief Runtime ISA dispatch for the packed GEMM micro-kernel.
///
/// Every multi-row inference product (and every `GemmNN` from the packing
/// threshold) bottoms out in one 4x16 micro-kernel: four A rows against one
/// 16-column packed B panel. This file owns the table of available
/// implementations (portable scalar, AVX2, AVX-512, NEON) and resolves the
/// widest one the running CPU supports once at startup. Every build compiles
/// the variants for its architecture; the x86 ones carry per-function
/// `target` attributes, so nothing else is compiled for the wider ISA, and a
/// CPUID probe registers each only on hosts that support it.
///
/// Bit-identity contract: for each output element, every implementation must
/// perform the identical per-element operation sequence — `v = alpha * a[p]`
/// then `acc += v * b` as two separately rounded float ops, p ascending.
/// Vectorization is over the 16-column panel axis only (element-independent),
/// so any kernel, on any host, produces bit-identical GEMM results. This is
/// what lets batched serving, the sweep fast path, and replicas on mixed
/// hardware return exactly the same estimates. SIMD kernels therefore use
/// separate mul/add intrinsics (no FMA), and the kernel translation units are
/// compiled with -ffp-contract=off so the compiler cannot re-fuse them.
///
/// Selection order: AVX-512F > AVX2 > NEON > scalar, overridable via the
/// `SELNET_KERNEL` environment variable (value = kernel name) or
/// `SetActiveKernel` (tests and benches pin each path explicitly).

namespace selnet::tensor {

/// \brief Packed-panel width (micro-kernel column tile). Matrix B is packed
/// into p-major panels of this many columns; see pack_cache.h.
inline constexpr size_t kPanelWidth = 16;

/// \brief Micro-kernel row tile: A rows processed per invocation.
inline constexpr size_t kMicroRows = 4;

/// \brief The 4x16 packed micro-kernel.
///
/// `panel` holds k rows of kPanelWidth floats (p-major, zero-padded);
/// `acc` is kMicroRows x kPanelWidth row-major and is accumulated into
/// (callers zero it). Computes, for p = 0..k-1 in ascending order:
///   acc[r][j] += (alpha * a_r[p]) * panel[p * kPanelWidth + j]
using MicroKernelFn = void (*)(const float* a0, const float* a1,
                               const float* a2, const float* a3, size_t k,
                               float alpha, const float* panel, float* acc);

/// \brief One dispatchable micro-kernel implementation.
struct KernelInfo {
  const char* name;    ///< "scalar", "avx2", "avx512", "neon".
  MicroKernelFn fn;
};

/// \brief Kernels for this architecture that the running CPU supports,
/// scalar first.
const std::vector<KernelInfo>& AvailableKernels();

/// \brief The kernel every packed GemmNN currently dispatches to. Resolved
/// once (widest available, or the SELNET_KERNEL override) on first use.
const KernelInfo& ActiveKernel();

/// \brief Pin dispatch to the named kernel; false if it is not available on
/// this host. Used by tests (bit-identity across paths) and benches
/// (per-kernel GFLOP/s); thread-safe.
bool SetActiveKernel(const std::string& name);

}  // namespace selnet::tensor
