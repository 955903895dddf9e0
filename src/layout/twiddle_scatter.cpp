#include "ddl/layout/twiddle_scatter.hpp"

#include <algorithm>

#include "ddl/common/check.hpp"

namespace ddl::layout {

void twiddle_scatter_ref(cplx* x, index_t stride, const cplx* y, const cplx* w, index_t n1,
                         index_t n2, index_t j0, index_t j1) {
  DDL_REQUIRE(stride >= 1 && n1 >= 1 && n2 >= 1, "bad twiddle_scatter geometry");
  DDL_REQUIRE(0 <= j0 && j0 <= j1 && j1 <= n2, "bad twiddle_scatter column range");
  const index_t comb = n2 * stride;
  for (index_t j = j0; j < j1; ++j) {
    const cplx* src = y + j * n1;
    const cplx* tw = w + j * n1;
    cplx* dst = x + j * stride;
    if (j == 0) {
      // Unit-twiddle column: a plain scatter copy, exactly what the
      // two-pass path does (twiddle_pass_cols starts its loops at 1).
      for (index_t i = 0; i < n1; ++i) dst[i * comb] = src[i];
      continue;
    }
    dst[0] = src[0];  // i == 0: unit twiddle, copy
    for (index_t i = 1; i < n1; ++i) {
      const double ar = src[i].real();
      const double ai = src[i].imag();
      const double wr = tw[i].real();
      const double wi = tw[i].imag();
      dst[i * comb] = cplx(ar * wr - ai * wi, ar * wi + ai * wr);
    }
  }
}

void twiddle_scatter_ref(cplx* x, index_t stride, const cplx* y, const cplx* w, index_t n1,
                         index_t n2) {
  twiddle_scatter_ref(x, stride, y, w, n1, n2, 0, n2);
}

}  // namespace ddl::layout
