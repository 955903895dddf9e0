#include "ddl/fft/twiddle.hpp"

#include <cmath>
#include <numbers>

#include "ddl/common/check.hpp"

namespace ddl::fft {

void fill_twiddle_matrix(index_t r, index_t c, cplx* out) {
  DDL_REQUIRE(r >= 1 && c >= 1, "twiddle matrix extents must be >= 1");
  const double step = -2.0 * std::numbers::pi / static_cast<double>(r * c);
  for (index_t a = 0; a < r; ++a) {
    for (index_t b = 0; b < c; ++b) {
      const double ang = step * static_cast<double>(a * b);  // a*b < r*c: no reduction
      out[a * c + b] = {std::cos(ang), std::sin(ang)};
    }
  }
}

const cplx* TwiddleCache::ensure(index_t r, index_t c) {
  auto it = matrices_.find({r, c});
  if (it != matrices_.end()) return it->second.data();
  DDL_REQUIRE(r >= 1 && c >= 1, "twiddle matrix extents must be >= 1");
  AlignedBuffer<cplx> matrix(r * c);
  fill_twiddle_matrix(r, c, matrix.data());
  auto [pos, inserted] = matrices_.emplace(std::pair{r, c}, std::move(matrix));
  DDL_CHECK(inserted, "twiddle matrix insertion raced");
  return pos->second.data();
}

const cplx* TwiddleCache::get(index_t r, index_t c) const {
  auto it = matrices_.find({r, c});
  DDL_REQUIRE(it != matrices_.end(), "twiddle matrix missing; call build_for/ensure first");
  return it->second.data();
}

void TwiddleCache::build_for(const plan::Node& tree) {
  if (tree.is_leaf()) return;
  const index_t n1 = tree.left->n;
  const index_t n2 = tree.right->n;
  if (tree.ddl) {
    ensure(n2, n1);
  } else {
    ensure(n1, n2);
  }
  build_for(*tree.left);
  build_for(*tree.right);
}

index_t TwiddleCache::total_elements() const noexcept {
  index_t total = 0;
  for (const auto& [shape, buf] : matrices_) total += buf.size();
  return total;
}

}  // namespace ddl::fft
