#pragma once

#include <cstddef>
#include <string>
#include <vector>

/// \file kernel_dispatch.h
/// \brief Runtime ISA dispatch for the packed GEMM micro-kernel and the two
/// training kernels.
///
/// Every multi-row inference product (and every `GemmNN` from the packing
/// threshold) bottoms out in one 4x16 micro-kernel: four A rows against one
/// 16-column packed B panel. Training adds two more: the 4x16 dot-product
/// kernel of `GemmNT` (the dX product of every `ag::MatMul` backward) and the
/// 16-row squared-L2 block of the exact distance scans
/// (`data::Database::DistancesFrom`/`ExactSelectivity`). This file owns the
/// table of available implementations (portable scalar, AVX2, AVX-512, NEON)
/// and resolves the widest one the running CPU supports once at startup.
/// Every build compiles the variants for its architecture; the x86 ones carry
/// per-function `target` attributes, so nothing else is compiled for the
/// wider ISA, and a CPUID probe registers each only on hosts that support it.
///
/// Bit-identity contract: for each output element, every implementation must
/// perform the identical per-element operation sequence — for the
/// micro-kernel `v = alpha * a[p]` then `acc += v * b` as two separately
/// rounded float ops, p ascending; for the other two kernels the sequence of
/// `tensor::Dot` and `tensor::SquaredL2` (blas.h). Vectorization is over
/// independent outputs only (the panel's 16 columns, the block's 16 rows),
/// so every kernel produces bit-identical results to the portable scalar
/// one. SIMD kernels therefore use separate mul/add intrinsics (no FMA), and
/// the kernel translation units are compiled with -ffp-contract=off so the
/// compiler cannot re-fuse them.
///
/// What this does and does not buy across hosts: the GEMMs, `Dot` and
/// `SquaredL2` return the same bits on every host and every kernel. The rest
/// of the arithmetic — the autograd ops (e.g. the sum of squares in
/// `ag::NormL2Rows`, the cumsum and the PWL gather), `data::Distance`'s
/// cosine loop, the optimizer — lives in ordinary translation units, which
/// the compiler may contract to FMA when the build targets an FMA-capable
/// ISA (`SELNET_NATIVE=ON`, the default, builds with -march=native). So two
/// replicas return bit-identical estimates only when they run binaries built
/// with the same compiler and flags; a -march=native build and a
/// `SELNET_NATIVE=OFF` build (which emits no FMA) may differ in the last
/// bits. Making those TUs contraction-free changes numerics, so it waits for
/// a gate on model quality.
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

/// \brief The 4x16 dot-product kernel of GemmNT.
///
/// `panel` holds k rows of kPanelWidth floats: kPanelWidth rows b_j of the
/// (n x k) operand, transposed (p-major). Overwrites `acc` (kMicroRows x
/// kPanelWidth, row-major) with
///   acc[r][j] = alpha * Dot(a_r, b_j, k)
/// in Dot's operation sequence: four partial sums by p mod 4, the k mod 4
/// tail into the first, ((s0 + s1) + s2) + s3, then the multiply by alpha.
using DotKernelFn = void (*)(const float* a0, const float* a1,
                             const float* a2, const float* a3, size_t k,
                             float alpha, const float* panel, float* acc);

/// \brief Rows per squared-L2 block.
inline constexpr size_t kL2BlockRows = 16;

/// \brief Largest row width the squared-L2 block takes (the AVX-512 variant
/// gathers with 32-bit offsets up to (kL2BlockRows - 1) * dim).
inline constexpr size_t kL2BlockMaxDim = size_t{1} << 26;

/// \brief The squared-L2 block: out[r] = SquaredL2(query, rows + r * dim,
/// dim) for r < kL2BlockRows (consecutive rows of a row-major matrix), in
/// SquaredL2's operation sequence: an even-index and an odd-index chain of
/// `d = q[i] - row[i]; s += d * d`, an odd-length tail into the even chain,
/// then s0 + s1.
using L2BlockFn = void (*)(const float* query, const float* rows, size_t dim,
                           float* out);

/// \brief One dispatchable kernel set.
struct KernelInfo {
  const char* name;    ///< "scalar", "avx2", "avx512", "neon".
  MicroKernelFn fn;    ///< Packed GEMM micro-kernel.
  DotKernelFn dot;     ///< GemmNT dot-product kernel.
  L2BlockFn l2_block;  ///< Exact-scan squared-L2 block.
};

/// \brief Kernels for this architecture that the running CPU supports,
/// scalar first.
const std::vector<KernelInfo>& AvailableKernels();

/// \brief The kernel set every packed GemmNN, GemmNT and squared-L2 block
/// currently dispatches to. Resolved once (widest available, or the
/// SELNET_KERNEL override) on first use.
const KernelInfo& ActiveKernel();

/// \brief Pin dispatch to the named kernel; false if it is not available on
/// this host. Used by tests (bit-identity across paths) and benches
/// (per-kernel GFLOP/s); thread-safe.
bool SetActiveKernel(const std::string& name);

namespace internal {
/// The portable reference dot-product kernel and squared-L2 block (the
/// "scalar" entry's); kernel sets whose SIMD version would not beat them
/// (micro_ops times each entry) reuse them.
void DotKernelPortable(const float* a0, const float* a1, const float* a2,
                       const float* a3, size_t k, float alpha,
                       const float* panel, float* acc);
void L2BlockPortable(const float* query, const float* rows, size_t dim,
                     float* out);
}  // namespace internal

}  // namespace selnet::tensor
