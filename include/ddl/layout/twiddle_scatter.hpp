#pragma once
/// \file twiddle_scatter.hpp
/// \brief Fused twiddle + restoring scatter: the single-sweep pass of a
///        ctddlf node.
///
/// A ddl split gathers its n1 x n2 matrix into column-major scratch, runs
/// the column DFTs at unit stride, multiplies by the twiddle factors, and
/// scatters the matrix back — historically two full passes over the n
/// points (detail::twiddle_pass_cols, then transpose_scatter). Since the
/// twiddle pass reads and rewrites exactly the elements the scatter is
/// about to move, the two passes fuse into one read/write sweep:
///
///     x[(i*n2 + j)*stride] = y[j*n1 + i] * w[j*n1 + i],   w[j*n1 + i] = W_n^{i*j}
///
/// This header declares the serial scalar reference. It is the golden model
/// the SIMD backends (codelets::twiddle_scatter_kernel) are asserted
/// bitwise-equal against, and documents the bitwise contract both share:
/// the i == 0 element and the j == 0 column carry unit twiddles and are
/// copied without multiplying (the two-pass code never touches them, and
/// w[0] = (1, -0.0) would flip negative-zero signs), and every multiplied
/// element uses the naive complex product re = ar*wr - ai*wi,
/// im = ar*wi + ai*wr in that exact operation order.
///
/// FFT-only (the WHT has no twiddle stage), hence cplx rather than a
/// template.

#include "ddl/common/types.hpp"

namespace ddl::layout {

/// Serial scalar reference for the fused pass over columns [j0, j1) of the
/// n1 x n2 matrix; `w` is the twiddle matrix M(n2,n1) of fft/twiddle.hpp,
/// read at unit stride beside the scratch column. Writes of distinct
/// columns never alias, so callers may split [0, n2) across threads.
void twiddle_scatter_ref(cplx* x, index_t stride, const cplx* y, const cplx* w, index_t n1,
                         index_t n2, index_t j0, index_t j1);

/// Full-matrix convenience overload (j0 = 0, j1 = n2).
void twiddle_scatter_ref(cplx* x, index_t stride, const cplx* y, const cplx* w, index_t n1,
                         index_t n2);

}  // namespace ddl::layout
