#pragma once
/// \file cachepred.hpp
/// \brief Symbolic per-stage cache-miss prediction — the static analogue of
///        the paper's Sec. III-B analysis, promoted to a planning oracle —
///        and the one description of every stage's address stream.
///
/// The footprint analyzer (footprint.hpp) models every execution stage as a
/// uniform chunk family; this module extends that write-set model to the
/// full access structure of a stage — reads, writes and twiddle-matrix
/// streams — and evaluates it against a configurable cache geometry *without
/// executing the plan*.
///
/// ## The pass model
///
/// Each stage becomes one or more `AccessPass`es: affine loop nests (outer
/// loops for sub-transform instances and chunks, an inner element loop)
/// over a fixed set of `StreamRef`s. A ref's byte address at outer indices
/// i[] and inner element e is
///
///     base + sum_l i[l]*loop_step[l] + e*elem_step.
///
/// Twiddle reads are no exception: the executors read each split's twiddle
/// matrix (fft/twiddle.hpp) in access order, a unit-stride stream beside
/// the data it scales, and each matrix has its own region, keyed by split
/// shape. One set of stage builders — leaf, Stockham, transpose, twiddle
/// rows, twiddle columns, fused twiddle-scatter, permute — emits these
/// passes, and every consumer places them in its own address space:
///
///   - enumerate_passes: the whole plan, stage-major (one stage's instances
///     become outer loops), for per-stage prediction;
///   - executor_passes: the whole plan in the executors' order, which the
///     trace-driven simulator (sim::FftTracer / sim::WhtTracer) replays;
///   - primitive_passes: one DP cost key at packed addresses, which the
///     simulated cost oracle replays and predict_primitive predicts.
///
/// A tiled transpose whose extents are not multiples of the 16x16 tile is
/// a short run of uniform passes in its exact tile order. Consecutive
/// passes with the same node path and op form one stage (stage_runs).
///
/// ## Prediction = the simulator, with an exact loop closure
///
/// `predict_stage` drives cache::Cache (split_remiss on) through a stage's
/// passes. When a single-pass stage's outermost loop provably shifts the
/// access stream by a constant byte offset and the cache state reaches a
/// shift-invariant fixed point, the evaluator *closes the loop in constant
/// time* — the steady-state extrapolation is exact, not approximate (the
/// shift is an automorphism of the cache's transition function), so
/// typical instance loops cost O(cache) instead of O(iterations). Where the
/// preconditions fail, it walks the nest.
///
/// The property suite (tests/test_cachepred.cpp) requires predict == replay
/// for every tested geometry, closure on and off. docs/CACHEMODEL.md states
/// the tolerance policy for the remaining comparison (per-stage-cold sums
/// vs. a warm whole-plan trace).

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ddl/cachesim/cache.hpp"
#include "ddl/common/types.hpp"
#include "ddl/obs/obs.hpp"
#include "ddl/plan/costdb.hpp"
#include "ddl/plan/tree.hpp"
#include "ddl/verify/footprint.hpp"

namespace ddl::verify::cachepred {

/// One memory stream of a pass (see the file comment for the address form).
struct StreamRef {
  bool write = false;
  bool once = false;  ///< issued once per outer iteration (before element 0)
  std::uint64_t base = 0;              ///< byte address at all indices zero
  std::vector<std::int64_t> loop_step; ///< bytes per outer-loop increment
  std::int64_t elem_step = 0;          ///< bytes per inner element
  std::uint32_t width = 0;             ///< bytes touched per access (element size)

  bool skip_first_outer = false;  ///< innermost outer index 0 skips this ref
  bool skip_first_elem = false;   ///< inner element 0 skips this ref
};

/// Most refs one sweep may carry (a Stockham butterfly stage has five).
inline constexpr std::size_t kMaxSweepRefs = 8;

/// One inner sweep: `count` elements, each issuing `refs` in order.
struct Sweep {
  index_t count = 0;
  std::vector<StreamRef> refs;
};

/// One uniform loop nest of a stage. Outer loops are listed outermost
/// first; every full outer iteration runs the sweeps in order.
struct AccessPass {
  std::string node_path;            ///< footprint-style tree location
  std::string op;                   ///< stage name, matching footprint ops
  std::vector<index_t> loops;       ///< outer loop trip counts
  std::vector<Sweep> sweeps;

  /// Demand accesses one full execution of the pass issues.
  [[nodiscard]] std::uint64_t accesses() const;
  /// accesses() weighted by each ref's element width, in bytes.
  [[nodiscard]] std::uint64_t bytes_touched() const;
};

/// Throw std::invalid_argument unless every ref carries one step per outer
/// loop and no sweep has more than kMaxSweepRefs refs.
void validate_pass(const AccessPass& pass);

/// Issue the demand accesses of outer-loop-0 iterations [lo, hi) of a
/// validated pass, in nest order, to `touch(addr, is_write)` (the whole
/// pass when it has no outer loops and lo == 0, hi == 1).
template <class Touch>
void walk_iters(const AccessPass& pass, index_t lo, index_t hi, Touch&& touch) {
  using i64 = std::int64_t;
  const std::size_t nl = pass.loops.size();
  std::uint64_t inner = 1;
  for (std::size_t l = 1; l < nl; ++l) {
    if (pass.loops[l] <= 0) return;
    inner *= static_cast<std::uint64_t>(pass.loops[l]);
  }
  // Per ref of every sweep, in order: its address at element 0 of the
  // current outer indices. carry[k * nl + l] is how it changes when outer
  // index l steps and the indices inside it wrap to zero, so the nest
  // advances by additions alone.
  std::vector<i64> at;
  std::vector<i64> carry;
  for (const Sweep& sw : pass.sweeps) {
    for (const StreamRef& r : sw.refs) {
      at.push_back(0);
      const std::size_t k0 = carry.size();
      carry.resize(k0 + nl);
      i64 wrap = 0;
      for (std::size_t l = nl; l-- > 1;) {
        carry[k0 + l] = r.loop_step[l] - wrap;
        wrap += (pass.loops[l] - 1) * r.loop_step[l];
      }
    }
  }
  // Per ref of one sweep: the element-0 address copied from `at`, advanced
  // element by element, and whether the ref issues at element 0 and at
  // later elements.
  struct Cursor {
    i64 addr, step;
    bool write, first, rest;
  };
  std::array<Cursor, kMaxSweepRefs> cur;
  std::vector<index_t> idx(std::max<std::size_t>(nl, 1), 0);
  for (index_t i0 = lo; i0 < hi; ++i0) {
    std::size_t k = 0;
    for (const Sweep& sw : pass.sweeps) {
      for (const StreamRef& r : sw.refs) {
        at[k++] = static_cast<i64>(r.base) + (nl != 0 ? i0 * r.loop_step[0] : 0);
      }
    }
    idx[0] = i0;
    for (std::size_t l = 1; l < nl; ++l) idx[l] = 0;
    for (std::uint64_t it = 0; it < inner; ++it) {
      const bool first_outer = nl != 0 && idx[nl - 1] == 0;
      k = 0;
      for (const Sweep& sw : pass.sweeps) {
        const std::size_t nr = sw.refs.size();
        for (std::size_t j = 0; j < nr; ++j, ++k) {
          const StreamRef& r = sw.refs[j];
          const bool live = !(r.skip_first_outer && first_outer);
          cur[j] = {at[k], r.elem_step, r.write, live && !r.skip_first_elem, live && !r.once};
        }
        for (index_t e = 0; e < sw.count; ++e) {
          for (std::size_t j = 0; j < nr; ++j) {
            Cursor& c = cur[j];
            if (e == 0 ? c.first : c.rest) touch(static_cast<std::uint64_t>(c.addr), c.write);
            c.addr += c.step;
          }
        }
      }
      for (std::size_t l = nl; l-- > 1;) {
        if (++idx[l] < pass.loops[l]) {
          for (std::size_t q = 0; q < at.size(); ++q) at[q] += carry[q * nl + l];
          break;
        }
        idx[l] = 0;
      }
    }
  }
}

/// Issue every demand access of the pass, in exact nest order, to `touch`.
/// sim::replay_pass drives a real cache::Cache through this; the tracers
/// and the simulated cost oracle are that replay.
template <class Touch>
void walk_pass(const AccessPass& pass, Touch&& touch) {
  validate_pass(pass);
  walk_iters(pass, 0, pass.loops.empty() ? 1 : pass.loops[0], touch);
}

/// Prediction for one stage over a (possibly two-level) geometry. The
/// counters are cache::Cache's own, classified with split_remiss on.
struct PassPrediction {
  cache::CacheStats l1;
  cache::CacheStats l2;             ///< all-zero when no L2 was configured
  std::uint64_t bytes_moved = 0;    ///< bytes_touched() of the stage's passes
  bool closed_form = false;         ///< steady-state closure fired
};

/// Evaluate one stage — a run of passes — against a cold cache. `l2` may be
/// null (single level); when given it sees exactly the accesses that miss
/// in `l1`. Configs are validated. `enable_closure` toggles the
/// steady-state loop closure (single-pass stages only); with it off the
/// evaluator always walks the full nest (same counts, more time — the
/// property suite runs both).
PassPrediction predict_stage(std::span<const AccessPass> stage, const cache::CacheConfig& l1,
                             const cache::CacheConfig* l2 = nullptr, bool enable_closure = true);

/// Split a pass list into stages: maximal runs of consecutive passes with
/// the same node_path and op.
std::vector<std::span<const AccessPass>> stage_runs(std::span<const AccessPass> passes);

/// Options for pass enumeration and whole-plan analysis. The element size
/// follows from the transform: 16 B for FFT, 8 B for WHT.
struct AnalyzeOptions {
  Transform transform = Transform::fft;
  std::uint64_t align_bytes = 64;   ///< region alignment (use the simulated
                                    ///< cache's line size to match sim/trace)
  cache::CacheConfig l1{.size_bytes = 32 * 1024, .associativity = 8};
  cache::CacheConfig l2{};          ///< paper default: 512 KB direct-mapped
};

/// Enumerate every pass of the plan stage-major: each stage once, its
/// sub-transform instances as outer loops, in the executors' stage order
/// and address space (data at 0, line-aligned scratch arena after it, one
/// twiddle region per split shape and one per Stockham table size, in
/// first-use order).
std::vector<AccessPass> enumerate_passes(const plan::Node& tree, const AnalyzeOptions& opts = {});

/// Every pass of one execution of the plan in exactly the executors' order
/// (fft/executor.cpp, wht/executor.cpp), in the address space of
/// enumerate_passes: instance loops are expanded into separate passes,
/// except over codelet leaves, whose executor loop is itself one pass.
/// Each pass goes to `sink` as soon as it is built.
void executor_passes(const plan::Node& tree, Transform transform, std::uint64_t align_bytes,
                     const std::function<void(const AccessPass&)>& sink);

/// How a footprint stage relates to the cachepred pass list.
enum class Coverage {
  modeled,    ///< a pass with the same (node, op) exists
  expanded,   ///< subtree stage: covered by the child's own passes
  waived,     ///< explicitly out of model scope (reason recorded)
  uncovered,  ///< escaped the model — CacheReport::covered() fails
};

/// Cross-check entry: one footprint stage, its disposition, and the
/// evidence (covering pass ops or the waiver reason).
struct StageCoverage {
  std::string node_path;
  std::string op;
  Coverage status = Coverage::modeled;
  std::string detail;
};

/// One analyzed stage: its passes and their prediction.
struct StagePrediction {
  std::string node_path;
  std::string op;
  std::vector<AccessPass> passes;
  PassPrediction predict;
};

/// Whole-plan cache report: per-stage predictions plus the structural
/// cross-check against the footprint analyzer's stage list. `covered()` is
/// false iff some footprint stage is neither modeled, expanded nor waived —
/// the signal that a new executor stage escaped the static model.
struct CacheReport {
  std::vector<StagePrediction> stages;
  std::vector<StageCoverage> coverage;
  cache::CacheStats total_l1;
  cache::CacheStats total_l2;
  std::uint64_t bytes_moved = 0;
  bool uncovered = false;

  [[nodiscard]] bool covered() const noexcept { return !uncovered; }
};

/// Analyze a plan: enumerate passes, predict each stage against opts.l1/l2, and
/// cross-check coverage against enumerate_stages(tree, opts.transform).
CacheReport analyze_plan(const plan::Node& tree, const AnalyzeOptions& opts = {});

// ---------------------------------------------------------------------------
// Planning oracle: per-CostKey predictions and the fitted time model
// ---------------------------------------------------------------------------

/// Successive sub-transforms a leaf primitive's probe runs and averages.
inline constexpr index_t kLeafProbeCount = 64;

/// Build the pass list for one DP primitive at packed addresses: data at 0,
/// scratch past the data's strided extent, the twiddle matrix or table past
/// the scratch. Leaf kinds model kLeafProbeCount successive sub-transforms like
/// the wall-clock probe. Empty for a kind the model does not know.
std::vector<AccessPass> primitive_passes(const plan::CostKey& key);

/// Nominal floating-point work of one primitive invocation (5 n log2 n for
/// transform leaves, per-point counts for twiddle/copy passes). Units are
/// abstract; the fitted beta absorbs the scale.
double primitive_flops(const plan::CostKey& key);

/// Coefficients of the cold-start time model
///     seconds = beta_flop * flops + alpha_l1 * L1_misses + alpha_l2 * L2_misses.
struct CostCoefficients {
  double beta_flop = 2.5e-10;  ///< ~4 GFLOP/s scalar baseline
  double alpha_l1 = 4.0e-9;    ///< L1 miss ~= L2 hit latency
  double alpha_l2 = 2.0e-8;    ///< L2 miss ~= memory latency (amortized)
  bool fitted = false;         ///< least-squares fit succeeded
  std::size_t samples = 0;     ///< CostDb entries the fit consumed
};

/// Fit the coefficients once per host by least squares over every CostDb
/// entry whose kind primitive_passes understands. Falls back to the
/// defaults (fitted = false) with fewer than four usable samples or a
/// singular system; negative solutions are clamped to zero.
CostCoefficients fit_coefficients(const plan::CostDb& db, const cache::CacheConfig& l1,
                                  const cache::CacheConfig& l2);

/// Predicted misses of one primitive at both levels (sum over its stages,
/// each cold, divided by kLeafProbeCount where the probe protocol averages).
struct PrimitivePrediction {
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
};
PrimitivePrediction predict_primitive(const plan::CostKey& key, const cache::CacheConfig& l1,
                                      const cache::CacheConfig& l2);

/// The cold-start cost model: alpha/beta-weighted predicted misses + flops.
double model_cost(const plan::CostKey& key, const CostCoefficients& co,
                  const cache::CacheConfig& l1, const cache::CacheConfig& l2);

// ---------------------------------------------------------------------------
// obs::Stage coverage (linted: tools/ddl_lint.py rule `stage-coverage`)
// ---------------------------------------------------------------------------

/// Static-analysis disposition of every runtime stage tag: either the
/// footprint/cachepred op family that models it, or an explicit
/// "waived: ..." reason. Total over the enum — a new obs::Stage value
/// fails compilation here (-Wswitch) and the lint rule cross-checks that
/// the mapping table names every enum value at the source level.
const char* obs_stage_model(obs::Stage stage) noexcept;

}  // namespace ddl::verify::cachepred
