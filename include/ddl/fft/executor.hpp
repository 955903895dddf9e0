#pragma once
/// \file executor.hpp
/// \brief Tree-driven FFT executor: runs any factorization tree, with or
///        without dynamic data layout nodes.
///
/// ## How a split node (n = n1*n2, physical stride s) executes (Fig. 2)
///
/// The node's elements data[0], data[s], ..., data[(n-1)s] are viewed as the
/// row-major matrix M[i][j] = data[(i*n2+j)s].
///
/// Static layout (ct):
///   1. n2 column DFTs of size n1, stride s*n2   (left child, Property 1)
///   2. twiddle pass: M[i][j] *= W_n^{i*j}
///   3. n1 row DFTs of size n2, stride s         (right child)
///   4. stride permutation L^n_{n2} to restore natural order
///
/// Dynamic layout (ctddl): steps 1–2 run on a reorganized copy:
///   1'. blocked transpose-gather: scratch[j*n1+i] = M[i][j]
///       (columns become contiguous — the reorganization of Fig. 5/6)
///   2'. n2 column DFTs at *unit stride* in scratch; twiddle pass in scratch
///   3'. blocked transpose-scatter back (the paper's "reverse
///       reorganization"); then steps 3–4 as above.
///
/// ## Scratch and parallelism
///
/// Serial execution scratch comes from a single arena of 2n_root elements:
/// a ddl node parks its n-element region and hands children the remainder,
/// and along any root-to-leaf path the regions sum to < 2*n_root.
///
/// The column and row sub-transforms of a node are mutually independent, so
/// above parallel::kMinParallelNode the executor fans them (and batch
/// elements) across the process thread pool. Each lane then recurses with
/// its *own* arena from a ScratchPool — the shared arena discipline would
/// otherwise serialize every recursive ddl node on one buffer. Fan-out is
/// one level deep (nested loops run serially inside a lane), and results
/// are bitwise identical for every thread count because partitioning never
/// changes the per-element operations. See docs/PARALLELISM.md.

#include <map>
#include <span>

#include "ddl/common/aligned.hpp"
#include "ddl/common/parallel.hpp"
#include "ddl/common/types.hpp"
#include "ddl/fft/stockham.hpp"
#include "ddl/fft/twiddle.hpp"
#include "ddl/plan/tree.hpp"

namespace ddl::fft {

/// Executable form of a factorization tree for one transform size.
///
/// Construction precomputes twiddle matrices and the scratch arena; forward()
/// and inverse() are then allocation-free (except lane arenas grown on the
/// first parallel execution). The executor owns a deep copy of the tree, so
/// the caller's tree may be discarded.
///
/// Thread-safety: one executor may be *driven* by one thread at a time (it
/// internally fans work across the pool); use one executor per concurrent
/// caller, or the locking PlanCache entry points.
class FftExecutor {
 public:
  /// \param tree  factorization tree; every leaf must either have a generated
  ///              codelet or be computed by the direct O(n^2) fallback.
  explicit FftExecutor(const plan::Node& tree);

  FftExecutor(FftExecutor&&) noexcept = default;
  FftExecutor& operator=(FftExecutor&&) noexcept = default;

  /// Transform size n (the root of the tree).
  [[nodiscard]] index_t size() const noexcept { return tree_->n; }

  /// The tree being executed (for reporting / tests).
  [[nodiscard]] const plan::Node& tree() const noexcept { return *tree_; }

  /// In-place forward DFT, natural order in and out.
  /// data.size() must equal size().
  void forward(std::span<cplx> data);

  /// In-place inverse DFT with 1/n scaling: inverse(forward(x)) == x.
  /// Implemented as a forward transform followed by one fused
  /// index-reversal + scale pass (IDFT(x)[k] = DFT(x)[(n-k) mod n] / n) —
  /// no conjugation passes over the data.
  void inverse(std::span<cplx> data);

  /// Advanced: run the forward transform in place on the strided element
  /// set data[0], data[stride], ..., data[(n-1)*stride]. The caller owns
  /// the enclosing array. Used by the measured planner (the paper's Fig. 8
  /// Get_Time) to time subtrees in their embedded, strided context.
  void forward_strided(cplx* data, index_t stride);

  /// Transform `count` signals in place, signal b starting at
  /// data + b*batch_stride (batch_stride >= size()). One plan and one
  /// twiddle set serve the whole batch; batch elements are dispatched
  /// across the thread pool with per-lane scratch.
  void forward_batch(cplx* data, index_t count, index_t batch_stride);

  /// Batched inverse, same layout contract as forward_batch.
  void inverse_batch(cplx* data, index_t count, index_t batch_stride);

  /// Number of real floating-point operations the paper's normalized MFLOPS
  /// metric assumes: 5 n log2(n).
  [[nodiscard]] double nominal_flops() const noexcept;

 private:
  void run(const plan::Node& node, cplx* data, index_t stride, cplx* arena, index_t arena_off);
  /// Fused index-reversal + 1/n scale turning DFT output into IDFT output.
  void inverse_finish(cplx* data);
  void twiddle_rows(cplx* data, index_t stride, index_t n1, index_t n2);
  void twiddle_cols(cplx* scratch, index_t n1, index_t n2);
  /// Fused twiddle+scatter pass of a ctddlf node (SIMD-dispatched single
  /// sweep replacing twiddle_cols + transpose_scatter).
  void twiddle_scatter(cplx* data, index_t stride, const cplx* scratch, index_t n, index_t n1,
                       index_t n2);
  /// One st(n) leaf: Stockham autosort FFT out of the node's arena region
  /// (stride 1 runs in place; strided leaves pack/unpack around it).
  void run_stockham(const plan::Node& node, cplx* data, index_t stride, cplx* arena,
                    index_t arena_off);
  /// True when this node should fan its sub-transform loops across the pool.
  [[nodiscard]] static bool should_fan_out(index_t node_points);

  plan::TreePtr tree_;
  TwiddleCache twiddles_;
  std::map<index_t, StockhamFft> stockham_;   // one instance per st(n) size
  AlignedBuffer<cplx> arena_;                 // serial-path arena (2n points)
  parallel::ScratchPool<cplx> lane_scratch_;  // per-lane arenas for fan-out
};

/// Convenience: execute `tree` once on `data`. Routed through the global
/// PlanCache, so repeated calls with the same tree shape reuse one executor
/// (and its twiddle matrices) instead of rebuilding them per call.
void execute_tree(const plan::Node& tree, std::span<cplx> data);

namespace detail {

/// Twiddle pass over a strided row-major node: data[(i*n2+j)*stride] *=
/// w[i*n2+j], with `w` the twiddle matrix M(n1,n2) (twiddle.hpp). Exposed
/// so the planner can time the exact executor loop. Rows are independent
/// and fan across the thread pool for large nodes.
void twiddle_pass_rows(cplx* data, index_t stride, index_t n1, index_t n2, const cplx* w);

/// Twiddle pass over a transposed contiguous node: scratch[j*n1+i] *=
/// w[j*n1+i], with `w` the twiddle matrix M(n2,n1). Columns fan across the
/// pool like twiddle_pass_rows.
void twiddle_pass_cols(cplx* scratch, index_t n1, index_t n2, const cplx* w);

}  // namespace detail

}  // namespace ddl::fft
