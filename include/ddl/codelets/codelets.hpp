#pragma once
/// \file codelets.hpp
/// \brief Straight-line unrolled leaf kernels ("codelets") and their registry.
///
/// FFTW and the CMU WHT package compute the leaves of a factorization tree
/// with machine-generated straight-line code; this library does the same.
/// tools/gen_codelets.py emits in-place *strided* kernels — a codelet of
/// size n transforms x[0], x[s], ..., x[(n-1)*s] in place:
///
///   * DFT codelets compute the forward (sign = -1) DFT in natural order.
///     Inverse transforms are obtained at the API layer by conjugation.
///   * WHT codelets compute the natural (Hadamard-ordered) WHT.
///
/// The stride parameter is the mechanism the whole paper revolves around:
/// the *same* codelet runs dramatically slower at a large power-of-two
/// stride than at unit stride (Sec. III-B), which is what the dynamic data
/// layout removes.
///
/// On top of the scalar kernels sits a *batched SIMD backend*: for every
/// codelet size a vector variant transforms `count` independent
/// sub-transforms spaced `dist` elements apart, packing kLanes of them
/// across the vector lanes (see ddl/common/vec.hpp and docs/SIMD.md).
/// Backends are compiled per ISA (scalar reference, SSE2, AVX2, NEON) and
/// selected at runtime: cpuid on x86, overridable with the DDL_SIMD
/// environment variable ("off"/"scalar"/"sse2"/"avx2"/"neon"/"native").

#include <optional>
#include <string_view>
#include <vector>

#include "ddl/common/types.hpp"

namespace ddl::codelets {

/// In-place strided forward DFT kernel.
using DftKernel = void (*)(cplx* x, index_t s) noexcept;

/// In-place strided WHT kernel.
using WhtKernel = void (*)(real_t* x, index_t s) noexcept;

/// Batched DFT kernel: `count` in-place transforms, transform j on
/// x[j*dist + i*s] for 0 <= i < n. Groups of kLanes(isa) columns run across
/// the vector lanes; the remainder falls back to the scalar codelet.
using DftBatchKernel = void (*)(cplx* x, index_t s, index_t dist, index_t count) noexcept;

/// Batched WHT kernel (same geometry over real data).
using WhtBatchKernel = void (*)(real_t* x, index_t s, index_t dist, index_t count) noexcept;

/// Fused twiddle+scatter kernel for a ctddlf node: one sweep writing
/// data[(j + i*n2)*s] = scratch[j*n1 + i] * w[j*n1 + i] for columns
/// j in [j0, j1), where `w` is the n = n1*n2 element twiddle matrix
/// M(n2,n1) of fft/twiddle.hpp (w[j*n1 + i] = W_n^{i*j}), with pure copies
/// (no multiply) on the unit-twiddle i==0 and j==0 lines so the result is
/// bitwise identical to the two-pass twiddle-columns-then-scatter path.
/// The `n` argument is unused. Callers parallelize over disjoint [j0, j1)
/// column ranges; writes of distinct columns never alias.
using TwiddleScatterKernel = void (*)(cplx* data, index_t s, const cplx* scratch,
                                      const cplx* w, index_t n, index_t n1, index_t n2,
                                      index_t j0, index_t j1) noexcept;

/// Instruction-set levels a batched backend can be compiled for. Values are
/// ordered by preference (higher = wider/faster); keep in sync with
/// isa_name() and obs::isa_label().
enum class Isa : std::uint8_t { scalar = 0, sse2 = 1, avx2 = 2, neon = 3 };

/// Stable lower-case name ("scalar", "sse2", "avx2", "neon").
const char* isa_name(Isa isa) noexcept;

/// Parse an ISA name or DDL_SIMD-style selector. Accepts the isa_name()
/// strings plus "off"/"0"/"none" (scalar) and "native"/"1"/"on" (best
/// supported). Returns nullopt for anything else.
std::optional<Isa> parse_isa(std::string_view text) noexcept;

/// True iff `isa`'s kernels are compiled into this binary AND the host CPU
/// can execute them (cpuid check on x86). Isa::scalar is always supported.
bool isa_supported(Isa isa) noexcept;

/// Widest supported ISA level (what dispatch picks with no override).
Isa best_isa() noexcept;

/// Vector lane count of an ISA level (1 for scalar).
int isa_lanes(Isa isa) noexcept;

/// Largest lane count among supported ISA levels; the footprint analyzer
/// uses this as the batching width bound (ddl::verify).
int max_batch_lanes() noexcept;

/// The ISA level batched kernels currently dispatch to. Defaults to
/// best_isa(), honouring the DDL_SIMD environment variable at process
/// start; unsupported requests degrade to the best supported level.
Isa active_isa() noexcept;

/// Override the dispatched ISA (clamped to a supported level; returns the
/// level actually installed). Control-plane only: call between transforms,
/// not concurrently with executor calls. Intended for tests and benches.
Isa set_active_isa(Isa isa) noexcept;

/// Batched kernel lookup for a specific ISA level; nullptr if the size has
/// no codelet or the level is not supported. Scalar requests always
/// resolve for codelet sizes (the reference backend is always built).
DftBatchKernel dft_batch_kernel(index_t n, Isa isa) noexcept;
WhtBatchKernel wht_batch_kernel(index_t n, Isa isa) noexcept;

/// Batched kernel at the active ISA level.
DftBatchKernel dft_batch_kernel(index_t n) noexcept;
WhtBatchKernel wht_batch_kernel(index_t n) noexcept;

/// Fused twiddle+scatter kernel for a specific ISA level; degrades to the
/// scalar implementation (never nullptr) when the level is not supported.
/// Unlike the codelets this kernel is size-generic, so there is no lookup
/// by n.
TwiddleScatterKernel twiddle_scatter_kernel(Isa isa) noexcept;

/// Fused twiddle+scatter kernel at the active ISA level.
TwiddleScatterKernel twiddle_scatter_kernel() noexcept;

namespace detail {
// Per-backend lookup tables, one set per vec_*.cpp translation unit.
// A backend that is not compiled into the binary returns nullptr.
DftBatchKernel dft_batch_scalar(index_t n) noexcept;
WhtBatchKernel wht_batch_scalar(index_t n) noexcept;
DftBatchKernel dft_batch_sse2(index_t n) noexcept;
WhtBatchKernel wht_batch_sse2(index_t n) noexcept;
DftBatchKernel dft_batch_avx2(index_t n) noexcept;
WhtBatchKernel wht_batch_avx2(index_t n) noexcept;
DftBatchKernel dft_batch_neon(index_t n) noexcept;
WhtBatchKernel wht_batch_neon(index_t n) noexcept;
TwiddleScatterKernel twiddle_scatter_scalar() noexcept;
TwiddleScatterKernel twiddle_scatter_sse2() noexcept;
TwiddleScatterKernel twiddle_scatter_avx2() noexcept;
TwiddleScatterKernel twiddle_scatter_neon() noexcept;
}  // namespace detail

// Generated kernels (see dft_codelets_gen.cpp / wht_codelets_gen.cpp).
void dft_codelet_2(cplx* x, index_t s) noexcept;
void dft_codelet_3(cplx* x, index_t s) noexcept;
void dft_codelet_4(cplx* x, index_t s) noexcept;
void dft_codelet_5(cplx* x, index_t s) noexcept;
void dft_codelet_6(cplx* x, index_t s) noexcept;
void dft_codelet_7(cplx* x, index_t s) noexcept;
void dft_codelet_8(cplx* x, index_t s) noexcept;
void dft_codelet_9(cplx* x, index_t s) noexcept;
void dft_codelet_10(cplx* x, index_t s) noexcept;
void dft_codelet_12(cplx* x, index_t s) noexcept;
void dft_codelet_15(cplx* x, index_t s) noexcept;
void dft_codelet_16(cplx* x, index_t s) noexcept;
void dft_codelet_20(cplx* x, index_t s) noexcept;
void dft_codelet_24(cplx* x, index_t s) noexcept;
void dft_codelet_32(cplx* x, index_t s) noexcept;
void dft_codelet_48(cplx* x, index_t s) noexcept;
void dft_codelet_64(cplx* x, index_t s) noexcept;
void dft_codelet_128(cplx* x, index_t s) noexcept;

void wht_codelet_2(real_t* x, index_t s) noexcept;
void wht_codelet_4(real_t* x, index_t s) noexcept;
void wht_codelet_8(real_t* x, index_t s) noexcept;
void wht_codelet_16(real_t* x, index_t s) noexcept;
void wht_codelet_32(real_t* x, index_t s) noexcept;
void wht_codelet_64(real_t* x, index_t s) noexcept;
void wht_codelet_128(real_t* x, index_t s) noexcept;

/// Look up the DFT codelet for size n; nullptr if none exists.
DftKernel dft_kernel(index_t n) noexcept;

/// Look up the WHT codelet for size n; nullptr if none exists.
WhtKernel wht_kernel(index_t n) noexcept;

/// True iff a DFT codelet exists for size n.
bool has_dft_codelet(index_t n) noexcept;

/// True iff a WHT codelet exists for size n.
bool has_wht_codelet(index_t n) noexcept;

/// Sizes with a generated DFT codelet, ascending.
const std::vector<index_t>& dft_codelet_sizes();

/// Sizes with a generated WHT codelet, ascending.
const std::vector<index_t>& wht_codelet_sizes();

/// Runtime fallback: in-place strided direct O(n^2) DFT (sign = -1) for any
/// n >= 1. Used for prime leaf sizes with no codelet; correct but slow.
void dft_direct_inplace(cplx* x, index_t s, index_t n);

/// Runtime fallback: in-place strided iterative WHT for any power-of-two n.
void wht_direct_inplace(real_t* x, index_t s, index_t n);

}  // namespace ddl::codelets
