#pragma once
/// \file twiddle.hpp
/// \brief Twiddle factors of factorized DFTs, stored in the order the
///        twiddle passes read them.
///
/// A split n = n1*n2 scales element (i, j) of its n1 x n2 matrix by
/// W_n^{i*j} (the diagonal "twiddle matrix" T of eq. (1)). The cache keeps
/// one access-ordered matrix per split shape,
///
///     M(r,c)[a*c + b] = W_{rc}^{a*b},   0 <= a < r, 0 <= b < c,
///
/// so every twiddle read is a unit-stride stream beside the data it scales,
/// the same dynamic-data-layout argument the reorganizations make for the
/// data itself. The row pass of a static split reads M(n1,n2) row by row;
/// the column pass and the fused twiddle-scatter sweep of a ddl split read
/// M(n2,n1), column j of the transposed scratch beside row j of the matrix.
/// Each entry is cos/sin(-2*pi*k/n) at k = a*b < n, the expression a
/// length-n table would hold at that index, so the values are the same bit
/// for bit. One matrix holds n elements, as a length-n table would; splits
/// that share a shape and an orientation share the matrix.

#include <map>
#include <utility>

#include "ddl/common/aligned.hpp"
#include "ddl/common/types.hpp"
#include "ddl/plan/tree.hpp"

namespace ddl::fft {

/// Write the r x c twiddle matrix M(r,c) (forward sign) to out[0, r*c).
void fill_twiddle_matrix(index_t r, index_t c, cplx* out);

/// Build and own the twiddle matrices of a plan tree, one per split shape.
class TwiddleCache {
 public:
  TwiddleCache() = default;

  /// Ensure M(r,c) exists; returns its base pointer.
  const cplx* ensure(index_t r, index_t c);

  /// Look up a matrix previously created by ensure(). Throws if absent.
  [[nodiscard]] const cplx* get(index_t r, index_t c) const;

  /// Walk `tree` and build the matrix every split's twiddle pass reads:
  /// M(n1,n2) for a static split, M(n2,n1) for a ddl (or fused) split.
  void build_for(const plan::Node& tree);

  [[nodiscard]] std::size_t matrices() const noexcept { return matrices_.size(); }

  /// Total elements across all matrices (memory footprint diagnostics).
  [[nodiscard]] index_t total_elements() const noexcept;

 private:
  std::map<std::pair<index_t, index_t>, AlignedBuffer<cplx>> matrices_;
};

}  // namespace ddl::fft
