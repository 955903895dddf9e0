#include "ddl/fft/executor.hpp"

#include <algorithm>
#include <cmath>

#include "ddl/codelets/codelets.hpp"
#include "ddl/common/check.hpp"
#include "ddl/fft/plan_cache.hpp"
#include "ddl/layout/reorg.hpp"
#include "ddl/layout/stride_perm.hpp"
#include "ddl/obs/obs.hpp"
#include "ddl/verify/plan_verify.hpp"

namespace ddl::fft {

namespace {

// Admission gate: in debug builds (or with DDL_VERIFY_PLANS set) only
// statically verified plans are executable. This also covers every plan the
// PlanCache admits, since entries are built through this constructor. The
// gate runs on the *caller's* tree, before clone(): clone rebuilds splits
// through make_split, which recomputes sizes from the children and would
// silently renormalize exactly the corruption the verifier exists to catch.
const plan::Node& admitted(const plan::Node& tree) {
  if (verify::enforcement_enabled()) {
    verify::require_verified(tree, verify::Transform::fft, "FftExecutor");
  }
  return tree;
}

// One StockhamFft per distinct st(n) size in the tree; instances are const
// after construction, so leaves of equal size (and concurrent lanes) share.
void collect_stockham(const plan::Node& node, std::map<index_t, StockhamFft>& out) {
  if (node.is_leaf()) {
    if (node.stockham) out.try_emplace(node.n, node.n);
    return;
  }
  collect_stockham(*node.left, out);
  collect_stockham(*node.right, out);
}

}  // namespace

FftExecutor::FftExecutor(const plan::Node& tree)
    : tree_(plan::clone(admitted(tree))), arena_(2 * tree.n) {
  twiddles_.build_for(*tree_);
  collect_stockham(*tree_, stockham_);
}

void FftExecutor::forward(std::span<cplx> data) {
  DDL_REQUIRE(static_cast<index_t>(data.size()) == tree_->n, "data size != plan size");
  const obs::ScopedStage root(obs::Stage::transform, tree_->n);
  run(*tree_, data.data(), 1, arena_.data(), 0);
}

void FftExecutor::forward_strided(cplx* data, index_t stride) {
  DDL_REQUIRE(data != nullptr && stride >= 1, "bad strided execution arguments");
  const obs::ScopedStage root(obs::Stage::transform, tree_->n, stride);
  run(*tree_, data, stride, arena_.data(), 0);
}

void FftExecutor::inverse(std::span<cplx> data) {
  DDL_REQUIRE(static_cast<index_t>(data.size()) == tree_->n, "data size != plan size");
  const obs::ScopedStage root(obs::Stage::transform, tree_->n);
  run(*tree_, data.data(), 1, arena_.data(), 0);
  inverse_finish(data.data());
}

void FftExecutor::inverse_finish(cplx* data) {
  // IDFT(x)[k] = DFT(x)[(n-k) mod n] / n: one fused reversal + scale pass
  // instead of the two conjugation passes of conj(DFT(conj(x)))/n.
  const index_t n = tree_->n;
  const double scale = 1.0 / static_cast<double>(n);
  data[0] *= scale;
  for (index_t lo = 1, hi = n - 1; lo <= hi; ++lo, --hi) {
    if (lo == hi) {
      data[lo] *= scale;
      break;
    }
    const cplx t = data[lo] * scale;
    data[lo] = data[hi] * scale;
    data[hi] = t;
  }
}

void FftExecutor::forward_batch(cplx* data, index_t count, index_t batch_stride) {
  DDL_REQUIRE(count >= 0, "batch count must be non-negative");
  DDL_REQUIRE(count == 0 || data != nullptr, "null batch data");
  DDL_REQUIRE(count == 0 || batch_stride >= tree_->n,
              "batch stride must be >= transform size");
  if (count == 0) return;
  const index_t n = tree_->n;
  const obs::ScopedStage batch_stage(obs::Stage::batch, count, n);
  if (count > 1 && should_fan_out(count * n)) {
    lane_scratch_.ensure(parallel::max_threads(), 2 * n);
    parallel::parallel_for(0, count, 1, [&](index_t b0, index_t b1, int slot) {
      cplx* lane = lane_scratch_.slot(slot);
      for (index_t b = b0; b < b1; ++b) run(*tree_, data + b * batch_stride, 1, lane, 0);
    });
  } else {
    for (index_t b = 0; b < count; ++b) run(*tree_, data + b * batch_stride, 1, arena_.data(), 0);
  }
}

void FftExecutor::inverse_batch(cplx* data, index_t count, index_t batch_stride) {
  DDL_REQUIRE(count >= 0, "batch count must be non-negative");
  DDL_REQUIRE(count == 0 || data != nullptr, "null batch data");
  DDL_REQUIRE(count == 0 || batch_stride >= tree_->n,
              "batch stride must be >= transform size");
  if (count == 0) return;
  const index_t n = tree_->n;
  const obs::ScopedStage batch_stage(obs::Stage::batch, count, n);
  if (count > 1 && should_fan_out(count * n)) {
    lane_scratch_.ensure(parallel::max_threads(), 2 * n);
    parallel::parallel_for(0, count, 1, [&](index_t b0, index_t b1, int slot) {
      cplx* lane = lane_scratch_.slot(slot);
      for (index_t b = b0; b < b1; ++b) {
        cplx* base = data + b * batch_stride;
        run(*tree_, base, 1, lane, 0);
        inverse_finish(base);
      }
    });
  } else {
    for (index_t b = 0; b < count; ++b) {
      cplx* base = data + b * batch_stride;
      run(*tree_, base, 1, arena_.data(), 0);
      inverse_finish(base);
    }
  }
}

double FftExecutor::nominal_flops() const noexcept {
  const auto n = static_cast<double>(tree_->n);
  return 5.0 * n * std::log2(n);
}

bool FftExecutor::should_fan_out(index_t node_points) {
  return node_points >= parallel::kMinParallelNode && parallel::max_threads() > 1 &&
         !parallel::in_parallel_region();
}

void FftExecutor::run(const plan::Node& node, cplx* data, index_t stride, cplx* arena,
                      index_t arena_off) {
  if (node.is_leaf()) {
    if (node.stockham) {
      run_stockham(node, data, stride, arena, arena_off);
      return;
    }
    if (const auto kernel = codelets::dft_kernel(node.n)) {
      kernel(data, stride);
    } else {
      codelets::dft_direct_inplace(data, stride, node.n);
    }
    return;
  }

  const index_t n = node.n;
  const index_t n1 = node.left->n;
  const index_t n2 = node.right->n;
  // Fan the independent sub-transform loops across the pool at most one
  // level deep: lanes recurse serially with their own ScratchPool arena, so
  // recursive ddl nodes no longer serialize on one shared buffer. The serial
  // paths keep the classic single-arena offset discipline, and both paths
  // perform identical per-element operations (bitwise-equal results).
  const bool fan_out = should_fan_out(n);

  if (node.ddl) {
    // Dynamic data layout: reorganize so the column DFTs run at unit stride.
    cplx* scratch = arena + arena_off;
    {
      const obs::ScopedStage st(obs::Stage::reorg_gather, n1, n2);
      layout::transpose_gather(data, stride, n1, n2, scratch);
    }
    {
      // Leaf columns run at unit stride after the gather — exactly the
      // measurement the planner's dft_leaf cost key wants (a = leaf size,
      // b = column count), so keep the leaf case a distinct stage. Leaf
      // children with a codelet take the batched kernel, which packs
      // kLanes consecutive columns (dist = n1) across the vector lanes.
      const bool leaf = node.left->is_leaf();
      const codelets::Isa isa = codelets::active_isa();
      const auto batch = leaf ? codelets::dft_batch_kernel(n1, isa) : nullptr;
      const obs::ScopedStage st(leaf ? obs::Stage::leaf_cols : obs::Stage::fft_cols, n1, n2,
                                batch != nullptr ? static_cast<std::uint8_t>(isa)
                                                 : obs::kIsaScalar);
      if (batch != nullptr) {
        if (fan_out && n2 > 1) {
          parallel::parallel_for(0, n2, 1, [&](index_t j0, index_t j1, int) {
            batch(scratch + j0 * n1, 1, n1, j1 - j0);
          });
        } else {
          batch(scratch, 1, n1, n2);
        }
      } else if (fan_out && n2 > 1) {
        lane_scratch_.ensure(parallel::max_threads(), 2 * n1);
        parallel::parallel_for(0, n2, 1, [&](index_t j0, index_t j1, int slot) {
          cplx* lane = lane_scratch_.slot(slot);
          for (index_t j = j0; j < j1; ++j) run(*node.left, scratch + j * n1, 1, lane, 0);
        });
      } else {
        for (index_t j = 0; j < n2; ++j) {
          run(*node.left, scratch + j * n1, 1, arena, arena_off + n);
        }
      }
    }
    if (node.fused) {
      // ctddlf: one fused sweep twiddles each scratch column while
      // scattering it back to its strided home — bitwise-identical to the
      // two-pass path below by the twiddle_scatter kernel contract.
      twiddle_scatter(data, stride, scratch, n, n1, n2);
    } else {
      {
        const obs::ScopedStage st(obs::Stage::twiddle_cols, n, n2);
        twiddle_cols(scratch, n1, n2);  // ddl-lint: allow(fused-twiddle)
      }
      {
        const obs::ScopedStage st(obs::Stage::reorg_scatter, n1, n2);
        layout::transpose_scatter(data, stride, n1, n2, scratch);
      }
    }
  } else {
    // Static layout: column DFTs walk the original strided storage. The
    // batched kernel still applies — column j starts at data + j*stride
    // (dist = stride) with element stride stride*n2.
    {
      const codelets::Isa isa = codelets::active_isa();
      const auto batch =
          node.left->is_leaf() ? codelets::dft_batch_kernel(n1, isa) : nullptr;
      const obs::ScopedStage st(obs::Stage::fft_cols, n1, n2,
                                batch != nullptr ? static_cast<std::uint8_t>(isa)
                                                 : obs::kIsaScalar);
      if (batch != nullptr) {
        if (fan_out && n2 > 1) {
          parallel::parallel_for(0, n2, 1, [&](index_t j0, index_t j1, int) {
            batch(data + j0 * stride, stride * n2, stride, j1 - j0);
          });
        } else {
          batch(data, stride * n2, stride, n2);
        }
      } else if (fan_out && n2 > 1) {
        lane_scratch_.ensure(parallel::max_threads(), 2 * n1);
        parallel::parallel_for(0, n2, 1, [&](index_t j0, index_t j1, int slot) {
          cplx* lane = lane_scratch_.slot(slot);
          for (index_t j = j0; j < j1; ++j) {
            run(*node.left, data + j * stride, stride * n2, lane, 0);
          }
        });
      } else {
        for (index_t j = 0; j < n2; ++j) {
          run(*node.left, data + j * stride, stride * n2, arena, arena_off);
        }
      }
    }
    {
      const obs::ScopedStage st(obs::Stage::twiddle_rows, n, n2);
      twiddle_rows(data, stride, n1, n2);
    }
  }

  // Row DFTs (right child, stride s per Property 1). Leaf rows batch with
  // dist = n2*stride — the lanes carry n1 independent row transforms.
  {
    const codelets::Isa isa = codelets::active_isa();
    const auto batch =
        node.right->is_leaf() ? codelets::dft_batch_kernel(n2, isa) : nullptr;
    const obs::ScopedStage st(obs::Stage::fft_rows, n2, n1,
                              batch != nullptr ? static_cast<std::uint8_t>(isa)
                                               : obs::kIsaScalar);
    if (batch != nullptr) {
      if (fan_out && n1 > 1) {
        parallel::parallel_for(0, n1, 1, [&](index_t i0, index_t i1, int) {
          batch(data + i0 * n2 * stride, stride, n2 * stride, i1 - i0);
        });
      } else {
        batch(data, stride, n2 * stride, n1);
      }
    } else if (fan_out && n1 > 1) {
      lane_scratch_.ensure(parallel::max_threads(), 2 * n2);
      parallel::parallel_for(0, n1, 1, [&](index_t i0, index_t i1, int slot) {
        cplx* lane = lane_scratch_.slot(slot);
        for (index_t i = i0; i < i1; ++i) {
          run(*node.right, data + i * n2 * stride, stride, lane, 0);
        }
      });
    } else {
      for (index_t i = 0; i < n1; ++i) {
        run(*node.right, data + i * n2 * stride, stride, arena, arena_off);
      }
    }
  }

  // Restore natural order: position (i*n2+j) holds X[i + n1*j]; apply L^n_{n2}.
  {
    const obs::ScopedStage st(obs::Stage::stride_perm, n, n2);
    layout::stride_permute_inplace(data, stride, n, n2, arena + arena_off);
  }
}

void FftExecutor::twiddle_rows(cplx* data, index_t stride, index_t n1, index_t n2) {
  detail::twiddle_pass_rows(data, stride, n1, n2, twiddles_.get(n1, n2));
}

void FftExecutor::twiddle_cols(cplx* scratch, index_t n1, index_t n2) {
  detail::twiddle_pass_cols(scratch, n1, n2, twiddles_.get(n2, n1));
}

void FftExecutor::twiddle_scatter(cplx* data, index_t stride, const cplx* scratch, index_t n,
                                  index_t n1, index_t n2) {
  // Columns are independent (column j touches only scratch[j*n1..], the
  // matrix row w[j*n1..] and the write comb data[(i*n2+j)*stride]), so the
  // pass fans across the pool exactly like transpose_scatter; parallel_for
  // refuses nested regions, so no fan_out gate is needed here.
  const codelets::Isa isa = codelets::active_isa();
  const auto kernel = codelets::twiddle_scatter_kernel(isa);
  const cplx* w = twiddles_.get(n2, n1);
  const obs::ScopedStage st(obs::Stage::twiddle_scatter, n1, n2,
                            static_cast<std::uint8_t>(isa));
  const index_t grain =
      std::max<index_t>(1, parallel::kMinParallelReorg / std::max<index_t>(1, n1));
  parallel::parallel_for(0, n2, grain, [&](index_t j0, index_t j1, int) {
    kernel(data, stride, scratch, w, n, n1, n2, j0, j1);
  });
}

void FftExecutor::run_stockham(const plan::Node& node, cplx* data, index_t stride, cplx* arena,
                               index_t arena_off) {
  const index_t n = node.n;
  const StockhamFft& fft = stockham_.at(n);
  const obs::ScopedStage st(obs::Stage::stockham_leaf, n, stride);
  cplx* scratch = arena + arena_off;
  if (stride == 1) {
    // In place with the arena as ping-pong buffer (needs n elements).
    fft.run_with(data, scratch);
  } else {
    // Strided embedding: pack to unit stride, transform, unpack. Uses 2n
    // scratch (packed signal + ping-pong), which verify::scratch_requirement
    // reserves for every st(n) leaf.
    layout::pack(data, stride, n, scratch);
    fft.run_with(scratch, scratch + n);
    layout::unpack(data, stride, n, scratch);
  }
}

namespace detail {

namespace {

/// x *= w as the naive complex product, in the operation order of the
/// fused twiddle_scatter kernels (re = ar*wr - ai*wi, im = ar*wi + ai*wr).
inline void scale(cplx& x, const cplx& w) {
  const double ar = x.real();
  const double ai = x.imag();
  x = cplx(ar * w.real() - ai * w.imag(), ar * w.imag() + ai * w.real());
}

}  // namespace

void twiddle_pass_rows(cplx* data, index_t stride, index_t n1, index_t n2, const cplx* w) {
  // Row 0 and column 0 have unit twiddles; skip them. Row i reads matrix
  // row w[i*n2..] at unit stride, so rows are independent and fan across
  // the pool for large nodes.
  const index_t grain =
      std::max<index_t>(1, parallel::kMinParallelReorg / std::max<index_t>(1, n2));
  parallel::parallel_for(1, n1, grain, [&](index_t r0, index_t r1, int) {
    for (index_t i = r0; i < r1; ++i) {
      cplx* row = data + i * n2 * stride;
      const cplx* wr = w + i * n2;
      for (index_t j = 1; j < n2; ++j) scale(row[j * stride], wr[j]);
    }
  });
}

void twiddle_pass_cols(cplx* scratch, index_t n1, index_t n2, const cplx* w) {
  // scratch layout: scratch[j*n1 + i] = M[i][j], scaled by w[j*n1 + i] =
  // W_n^{i*j}: data and matrix are the same stream shape.
  const index_t grain =
      std::max<index_t>(1, parallel::kMinParallelReorg / std::max<index_t>(1, n1));
  parallel::parallel_for(1, n2, grain, [&](index_t c0, index_t c1, int) {
    for (index_t j = c0; j < c1; ++j) {
      cplx* col = scratch + j * n1;
      const cplx* wc = w + j * n1;
      for (index_t i = 1; i < n1; ++i) scale(col[i], wc[i]);
    }
  });
}

}  // namespace detail

void execute_tree(const plan::Node& tree, std::span<cplx> data) {
  // PlanCache keeps one executor per tree shape alive, so consecutive calls
  // stop re-cloning the tree and rebuilding twiddle matrices (and the entry
  // lock makes concurrent callers safe on the shared executor).
  PlanCache::Entry entry = PlanCache::instance().get(tree);
  const std::lock_guard<std::mutex> lock(*entry.guard);
  entry.exec->forward(data);
}

}  // namespace ddl::fft
